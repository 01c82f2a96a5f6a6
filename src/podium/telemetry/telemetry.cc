#include "podium/telemetry/telemetry.h"

#include <algorithm>

namespace podium::telemetry {

#if !defined(PODIUM_TELEMETRY_DISABLED)
namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}
#endif

namespace {

constexpr std::string_view kSpanPrefix = "span.seconds{span=\"";
constexpr std::string_view kSpanSuffix = "\"}";

/// fetch_add for atomic<double> via CAS (the fetch_add overload for
/// floating point is C++20 but not universally lock-free; this always is
/// on platforms with a 64-bit CAS).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBounds();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket]->fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    counts.push_back(bucket->load(std::memory_order_relaxed));
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket->store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
}

std::string SpanMetricName(std::string_view span) {
  std::string name(kSpanPrefix);
  name += span;
  name += kSpanSuffix;
  return name;
}

std::string_view SpanNameOf(std::string_view metric) {
  if (metric.size() <= kSpanPrefix.size() + kSpanSuffix.size() ||
      !metric.starts_with(kSpanPrefix) || !metric.ends_with(kSpanSuffix)) {
    return {};
  }
  metric.remove_prefix(kSpanPrefix.size());
  metric.remove_suffix(kSpanSuffix.size());
  return metric;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: metric references handed out must stay valid
  // for the process lifetime, including static destructors.
  static MetricsRegistry* registry =
      new MetricsRegistry();  // podium-lint: allow(raw-new)
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  util::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  util::MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.bounds = histogram->bounds();
    h.counts = histogram->BucketCounts();
    h.count = histogram->Count();
    h.sum = histogram->Sum();
    snapshot.histograms.emplace_back(name, std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace podium::telemetry
