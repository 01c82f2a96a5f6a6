#ifndef PODIUM_OBS_LOG_H_
#define PODIUM_OBS_LOG_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::obs {

/// Severity, ordered. The process-wide minimum level defaults to kWarn so
/// library code can log liberally without spamming test output; serving
/// binaries raise it to kInfo at startup (access logs are info-level).
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

std::string_view LogLevelName(LogLevel level);

/// Where finished log lines go. The line is a complete JSON object WITHOUT
/// a trailing newline; the default sink appends one and writes to stderr.
using LogSink = std::function<void(std::string_view line)>;

/// Process-wide logger configuration. Every setter is thread-safe and
/// takes effect for subsequent log statements.
void SetMinLogLevel(LogLevel level);
LogLevel MinLogLevel();

/// Replaces the sink; nullptr restores the stderr default. Returns
/// nothing — tests capture lines by installing a closure over their own
/// buffer and restoring nullptr in teardown.
void SetLogSink(LogSink sink);

/// Token-bucket rate limiter for log statements: at most `burst` events
/// instantly, refilled at `per_second`. Thread-safe; Allow() is one mutex
/// acquisition, cheap enough for warn/error paths (do not put it on a
/// per-request hot path at debug level).
class LogRateLimiter {
 public:
  LogRateLimiter(double per_second, double burst);

  /// True when this event is within budget; false when it should be
  /// dropped. Dropped counts accumulate and are reported by the next
  /// allowed event via suppressed().
  bool Allow() PODIUM_EXCLUDES(mutex_);

  /// Events dropped since the last allowed one (snapshot at the time
  /// Allow() last returned true).
  std::uint64_t suppressed() const PODIUM_EXCLUDES(mutex_);

 private:
  const double per_second_;
  const double burst_;
  mutable util::Mutex mutex_{"obs.log.rate_limiter"};
  double tokens_ PODIUM_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point last_refill_
      PODIUM_GUARDED_BY(mutex_);
  std::uint64_t dropped_since_allowed_ PODIUM_GUARDED_BY(mutex_) = 0;
  std::uint64_t last_suppressed_ PODIUM_GUARDED_BY(mutex_) = 0;
};

/// One structured log statement, emitted as a single JSON line when the
/// temporary dies:
///
///   {"ts": 1754650000.123, "level": "info", "msg": "request",
///    "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "status": 200}
///
/// Usage:
///
///   obs::LogEntry(obs::LogLevel::kInfo, "request")
///       .Str("path", "/v1/select").Num("status", 200)
///       .TraceId(trace_hex);
///
/// Field values are escaped by the JSON writer's formatters
/// (json::AppendEscaped / AppendNumber), so messages may contain
/// quotes, control characters or non-ASCII bytes. A statement below the
/// minimum level costs one atomic load and builds nothing.
class LogEntry {
 public:
  LogEntry(LogLevel level, std::string_view message);
  ~LogEntry();
  LogEntry(const LogEntry&) = delete;
  LogEntry& operator=(const LogEntry&) = delete;

  LogEntry& Str(std::string_view key, std::string_view value);
  LogEntry& Num(std::string_view key, double value);
  LogEntry& Bool(std::string_view key, bool value);
  /// Sets the conventional "trace_id" field (32 hex chars; see trace.h).
  LogEntry& TraceId(std::string_view trace_id_hex);
  /// Attaches a rate limiter: when it rejects, the whole line is dropped;
  /// when it admits after drops, a "suppressed" count field is added.
  LogEntry& RateLimit(LogRateLimiter& limiter);

  bool enabled() const { return enabled_; }

 private:
  /// Appends `, "key": ` to fields_; the caller appends the value.
  void AppendKey(std::string_view key);

  bool enabled_;
  bool dropped_ = false;
  LogLevel level_;
  std::string message_;
  std::uint64_t suppressed_ = 0;
  /// The fields so far, serialized: `, "key": value` each.
  std::string fields_;
};

/// Shorthand constructors, matching the fluent style above.
inline LogEntry LogDebug(std::string_view message) {
  return LogEntry(LogLevel::kDebug, message);
}
inline LogEntry LogInfo(std::string_view message) {
  return LogEntry(LogLevel::kInfo, message);
}
inline LogEntry LogWarn(std::string_view message) {
  return LogEntry(LogLevel::kWarn, message);
}
inline LogEntry LogError(std::string_view message) {
  return LogEntry(LogLevel::kError, message);
}

}  // namespace podium::obs

#endif  // PODIUM_OBS_LOG_H_
