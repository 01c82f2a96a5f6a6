#ifndef PODIUM_OBS_TRACE_H_
#define PODIUM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::telemetry {
class Histogram;
}  // namespace podium::telemetry

namespace podium::obs {

/// 128-bit request trace identifier, rendered as 32 lowercase hex chars —
/// the W3C trace-context width, so ids can travel unmodified through
/// fronting proxies. Propagated over HTTP in the X-Podium-Trace-Id
/// request/response headers: a client-supplied id is adopted verbatim,
/// otherwise the server mints one.
struct TraceId {
  std::uint64_t high = 0;
  std::uint64_t low = 0;

  bool IsZero() const { return high == 0 && low == 0; }
  std::string ToHex() const;

  /// Parses exactly 32 hex characters (either case); nullopt otherwise.
  static std::optional<TraceId> FromHex(std::string_view hex);

  /// Mints a process-unique, unpredictable-enough id (seeded per process,
  /// mixed with an atomic counter). Never returns the zero id.
  static TraceId Generate();
};

/// A numeric attribute on a span: a work counter that accounts for the
/// span's cost (the greedy's `rounds`, `retired_links`, ...).
struct SpanAttribute {
  std::string key;
  double value = 0.0;
};

/// One timed operation inside a request. Spans form a tree via
/// `parent` (index into the trace's span vector, -1 for roots); the serve
/// stack nests e.g. select → admission/cache.lookup/run → greedy.select.
struct TraceSpan {
  std::string name;
  int parent = -1;
  /// Offset from the trace's start, and duration, both in seconds.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::vector<SpanAttribute> attributes;
};

/// Per-request trace state: the id plus the span list. Created by the
/// HTTP server when a request arrives and installed as the calling
/// thread's current trace, so layers below (service, cache, greedy) can
/// attach spans without threading a context parameter through every
/// signature. NOT thread-safe — a request is handled by one thread; work
/// fanned out to pool threads is accounted to the span that launched it.
class TraceContext {
 public:
  explicit TraceContext(TraceId id);

  const TraceId& id() const { return id_; }

  /// Opens a span; returns its index (pass to EndSpan). Nested spans
  /// record the innermost open span as their parent.
  int BeginSpan(std::string_view name);
  void EndSpan(int index);

  /// Records an already-measured span (offset + duration in seconds,
  /// relative to the trace start) under the innermost open span. Returns
  /// the span's index. Library code goes through obs::RecordSpan, which
  /// also feeds the span histogram.
  int AddCompletedSpan(std::string_view name, double start_seconds,
                       double duration_seconds);

  /// Appends a numeric attribute to span `index`; bogus indices are
  /// ignored.
  void SetAttribute(int index, std::string_view key, double value);

  double ElapsedSeconds() const;
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  TraceId id_;
  std::chrono::steady_clock::time_point start_;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_stack_;  // indices of currently-open spans
};

/// The thread's current trace, or nullptr outside a request. Managed by
/// TraceScope; everything else only reads it.
TraceContext* CurrentTrace();

/// RAII installer: makes `context` the calling thread's current trace for
/// the scope's lifetime (restoring the previous one, so tests can nest).
class TraceScope {
 public:
  explicit TraceScope(TraceContext* context);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* previous_;
};

/// The one span primitive: an RAII wall-clock span that feeds two sinks.
/// - The thread's current trace, when one is installed, as a child of the
///   innermost open span.
/// - While telemetry is enabled, the registry histogram
///   `span.seconds{span="<name>"}`: the aggregate that /metrics, the
///   Prometheus `span_seconds` family, --timing and the bench exports
///   read. It is resolved at construction, so `name` may be a temporary.
/// With neither sink live a span costs a TLS read, a relaxed atomic load
/// and a clock read, so library code is instrumented unconditionally.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric attribute (recorded in the trace only).
  void SetAttribute(std::string_view key, double value);

  /// Seconds since construction.
  double ElapsedSeconds() const;

 private:
  TraceContext* trace_;
  telemetry::Histogram* histogram_ = nullptr;  // null: telemetry disabled
  int index_ = -1;
  std::chrono::steady_clock::time_point start_;
};

using SpanAttributes =
    std::initializer_list<std::pair<std::string_view, double>>;

/// Records an already-measured span through the same two sinks as Span:
/// the span histogram, and the current trace (if any) at `start_seconds`
/// from the trace's start. For intervals no RAII span can cover, such as
/// the HTTP queue wait or a shard's round 1 timed on a pool thread.
void RecordSpan(std::string_view name, double start_seconds,
                double duration_seconds, SpanAttributes attributes = {});

/// A completed request trace, as exported by GET /v1/traces.
struct FinishedTrace {
  std::string trace_id;  // 32 hex chars
  std::string method;
  std::string path;
  int http_status = 0;
  double start_unix_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<TraceSpan> spans;
};

/// Bounded in-memory ring of the most recent finished traces. One global
/// instance backs /v1/traces; capacity is fixed at construction and the
/// oldest trace is dropped when full, so memory stays bounded no matter
/// the request rate.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void Record(FinishedTrace trace) PODIUM_EXCLUDES(mutex_);

  /// Most recent first, at most `limit` (0 = everything retained).
  std::vector<FinishedTrace> Snapshot(std::size_t limit = 0) const
      PODIUM_EXCLUDES(mutex_);

  void Clear() PODIUM_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const PODIUM_EXCLUDES(mutex_);

  /// The process-wide ring (capacity 256) the serve stack records into.
  static TraceRing& Global();

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_{"obs.trace_ring"};
  std::deque<FinishedTrace> traces_ PODIUM_GUARDED_BY(mutex_);
};

}  // namespace podium::obs

#endif  // PODIUM_OBS_TRACE_H_
