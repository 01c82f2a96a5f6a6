#ifndef PODIUM_TELEMETRY_TELEMETRY_H_
#define PODIUM_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::telemetry {

/// Telemetry is opt-in: the library records nothing until SetEnabled(true)
/// (experiment binaries and the CLI enable it; plain library users pay one
/// relaxed atomic load per instrumented call). Defining
/// PODIUM_TELEMETRY_DISABLED at compile time turns every instrumentation
/// site into a constant-false branch the optimizer deletes outright.
#if defined(PODIUM_TELEMETRY_DISABLED)
inline constexpr bool Enabled() { return false; }
inline void SetEnabled(bool /*enabled*/) {}
#else
namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);
#endif

/// Monotonically increasing event count. Add() is lock-free (a relaxed
/// fetch_add); concurrent increments from any number of threads lose no
/// updates. Hot paths should hoist the Counter& out of the loop (the
/// registry lookup takes a mutex) or accumulate locally and flush once.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (population size, group count, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], the
/// last bucket is the +inf overflow. Bounds are fixed at first registration;
/// Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;  // ascending, strictly increasing
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for wall-time observations, in seconds.
std::vector<double> DefaultLatencyBounds();

/// The registry histogram obs::Span observes span `span`'s durations into:
/// span.seconds{span="<span>"} (the Prometheus `span_seconds` family).
std::string SpanMetricName(std::string_view span);

/// The inverse of SpanMetricName: the span name, or empty for any other
/// metric name.
std::string_view SpanNameOf(std::string_view metric);

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered metric, names sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Process-wide registry of named metrics. Registration (the first lookup
/// of a name) takes a mutex; the returned references stay valid for the
/// process lifetime, so sites that care hoist them into statics or locals.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Lookups take mutex_, so none of these may be called while holding a
  /// lock that is ever acquired under it — in particular ResultCache
  /// records cache telemetry only after releasing its own mutex
  /// (result_cache.h declares that with PODIUM_EXCLUDES).
  Counter& counter(std::string_view name) PODIUM_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) PODIUM_EXCLUDES(mutex_);
  /// `bounds` is honored only by the call that first registers `name`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {})
      PODIUM_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() const PODIUM_EXCLUDES(mutex_);

  /// Zeroes every metric's value; registrations (and references handed out
  /// earlier) stay valid.
  void Reset() PODIUM_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_{"telemetry.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      PODIUM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      PODIUM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      PODIUM_GUARDED_BY(mutex_);
};

}  // namespace podium::telemetry

#endif  // PODIUM_TELEMETRY_TELEMETRY_H_
