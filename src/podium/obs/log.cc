#include "podium/obs/log.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "podium/json/writer.h"
#include "podium/util/string_util.h"

namespace podium::obs {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kWarn)};

/// The installed sink lives behind a mutex: swaps are rare (startup,
/// tests) and emission is already serialized so interleaved lines never
/// shear mid-record.
util::Mutex& SinkMutex() {
  static util::Mutex* mutex = new util::Mutex{"obs.log.sink"};  // podium-lint: allow(raw-new)
  return *mutex;
}

LogSink& SinkSlot() PODIUM_REQUIRES(SinkMutex()) {
  static LogSink* sink = new LogSink;  // podium-lint: allow(raw-new)
  return *sink;
}

void DefaultSink(std::string_view line) {
  std::string out(line);
  out += '\n';
  std::fwrite(out.data(), 1, out.size(), stderr);
}

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void SetLogSink(LogSink sink) {
  util::MutexLock lock(SinkMutex());
  SinkSlot() = std::move(sink);
}

LogRateLimiter::LogRateLimiter(double per_second, double burst)
    : per_second_(per_second),
      burst_(burst),
      tokens_(burst),
      last_refill_(std::chrono::steady_clock::now()) {}

bool LogRateLimiter::Allow() {
  util::MutexLock lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * per_second_);
  if (tokens_ < 1.0) {
    ++dropped_since_allowed_;
    return false;
  }
  tokens_ -= 1.0;
  last_suppressed_ = dropped_since_allowed_;
  dropped_since_allowed_ = 0;
  return true;
}

std::uint64_t LogRateLimiter::suppressed() const {
  util::MutexLock lock(mutex_);
  return last_suppressed_;
}

LogEntry::LogEntry(LogLevel level, std::string_view message)
    : enabled_(static_cast<int>(level) >=
               g_min_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) message_ = std::string(message);
}

void LogEntry::AppendKey(std::string_view key) {
  fields_ += ", ";
  json::AppendEscaped(key, fields_);
  fields_ += ": ";
}

LogEntry& LogEntry::Str(std::string_view key, std::string_view value) {
  if (enabled_) {
    AppendKey(key);
    json::AppendEscaped(value, fields_);
  }
  return *this;
}

LogEntry& LogEntry::Num(std::string_view key, double value) {
  if (enabled_) {
    AppendKey(key);
    json::AppendNumber(value, fields_);
  }
  return *this;
}

LogEntry& LogEntry::Bool(std::string_view key, bool value) {
  if (enabled_) {
    AppendKey(key);
    fields_ += value ? "true" : "false";
  }
  return *this;
}

LogEntry& LogEntry::TraceId(std::string_view trace_id_hex) {
  return Str("trace_id", trace_id_hex);
}

LogEntry& LogEntry::RateLimit(LogRateLimiter& limiter) {
  if (!enabled_ || dropped_) return *this;
  if (!limiter.Allow()) {
    dropped_ = true;
    return *this;
  }
  suppressed_ = limiter.suppressed();
  return *this;
}

LogEntry::~LogEntry() {
  if (!enabled_ || dropped_) return;
  std::string line;
  line.reserve(96 + fields_.size());
  line += "{\"ts\": ";
  line += util::StringPrintf("%.3f", UnixSeconds());
  line += ", \"level\": ";
  json::AppendEscaped(LogLevelName(level_), line);
  line += ", \"msg\": ";
  json::AppendEscaped(message_, line);
  if (suppressed_ > 0) {
    line += ", \"suppressed\": ";
    json::AppendNumber(static_cast<double>(suppressed_), line);
  }
  line += fields_;
  line += "}";

  util::MutexLock lock(SinkMutex());
  const LogSink& sink = SinkSlot();
  if (sink) {
    sink(line);
  } else {
    DefaultSink(line);
  }
}

}  // namespace podium::obs
