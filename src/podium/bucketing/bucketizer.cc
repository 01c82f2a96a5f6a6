#include "podium/bucketing/bucketizer.h"

#include <algorithm>
#include <cmath>

#include "podium/bucketing/internal.h"
#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/math_util.h"

namespace podium::bucketing {

namespace {

/// Per-split accounting shared by every bucketizer: one counter increment
/// per Split() call plus a histogram of input sizes, so group derivation
/// cost can be traced back to the score distributions that drove it.
void RecordSplit(std::string_view method, std::size_t num_values) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter(std::string("bucketizer.splits.") + std::string(method))
      .Add();
  registry
      .histogram("bucketizer.split_input_values",
                 {10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0})
      .Observe(static_cast<double>(num_values));
}

}  // namespace

namespace internal {

Status ValidateSplitInput(const std::vector<double>& values, int max_buckets) {
  if (max_buckets < 1) {
    return Status::InvalidArgument("max_buckets must be >= 1");
  }
  for (double v : values) {
    if (!(v >= 0.0 && v <= 1.0)) {  // also rejects NaN
      return Status::InvalidArgument("score outside [0, 1] in bucketizer");
    }
  }
  return Status::Ok();
}

/// Deduplicates breakpoints, drops ones outside (0, 1), and builds the
/// partition. An empty breakpoint list yields the single bucket [0, 1].
std::vector<Bucket> BuildPartition(std::vector<double> breakpoints) {
  std::sort(breakpoints.begin(), breakpoints.end());
  std::vector<double> clean;
  for (double b : breakpoints) {
    if (b <= 0.0 || b >= 1.0) continue;
    if (!clean.empty() && b - clean.back() < 1e-12) continue;
    clean.push_back(b);
  }
  return PartitionFromBreakpoints(clean);
}

/// True when all values are within 1e-12 of each other (or there are < 2).
bool Degenerate(const std::vector<double>& values) {
  if (values.size() < 2) return true;
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *hi - *lo < 1e-12;
}

void CompressWeighted(const std::vector<double>& sorted_values,
                      std::size_t max_points, std::vector<double>& points,
                      std::vector<double>& weights) {
  points.clear();
  weights.clear();
  // First collapse exact duplicates.
  for (double v : sorted_values) {
    if (!points.empty() && v - points.back() < 1e-12) {
      weights.back() += 1.0;
    } else {
      points.push_back(v);
      weights.push_back(1.0);
    }
  }
  if (points.size() <= max_points) return;
  // Merge adjacent distinct values into max_points equal-width micro-bins
  // over the observed range, keeping weighted means as representatives.
  const double lo = points.front();
  const double hi = points.back();
  const double width = (hi - lo) / static_cast<double>(max_points);
  std::vector<double> merged_points;
  std::vector<double> merged_weights;
  std::size_t i = 0;
  for (std::size_t bin = 0; bin < max_points && i < points.size(); ++bin) {
    const double bound =
        bin + 1 == max_points ? hi : lo + width * static_cast<double>(bin + 1);
    double weight_sum = 0.0;
    double value_sum = 0.0;
    while (i < points.size() &&
           (points[i] <= bound || bin + 1 == max_points)) {
      weight_sum += weights[i];
      value_sum += points[i] * weights[i];
      ++i;
    }
    if (weight_sum > 0.0) {
      merged_points.push_back(value_sum / weight_sum);
      merged_weights.push_back(weight_sum);
    }
  }
  points = std::move(merged_points);
  weights = std::move(merged_weights);
}

}  // namespace internal

Result<std::vector<Bucket>> EqualWidthBucketizer::Split(
    std::vector<double> values, int max_buckets) const {
  PODIUM_RETURN_IF_ERROR(internal::ValidateSplitInput(values, max_buckets));
  RecordSplit("equal-width", values.size());
  obs::Span span("bucketize.equal-width");
  std::vector<double> breakpoints;
  for (int i = 1; i < max_buckets; ++i) {
    breakpoints.push_back(static_cast<double>(i) /
                          static_cast<double>(max_buckets));
  }
  return internal::BuildPartition(std::move(breakpoints));
}

Result<std::vector<Bucket>> QuantileBucketizer::Split(
    std::vector<double> values, int max_buckets) const {
  PODIUM_RETURN_IF_ERROR(internal::ValidateSplitInput(values, max_buckets));
  RecordSplit("quantile", values.size());
  obs::Span span("bucketize.quantile");
  if (internal::Degenerate(values)) {
    return internal::BuildPartition({});
  }
  std::sort(values.begin(), values.end());
  std::vector<double> breakpoints;
  for (int i = 1; i < max_buckets; ++i) {
    breakpoints.push_back(util::QuantileSorted(
        values, static_cast<double>(i) / static_cast<double>(max_buckets)));
  }
  return internal::BuildPartition(std::move(breakpoints));
}

Result<std::unique_ptr<Bucketizer>> MakeBucketizer(std::string_view method) {
  std::unique_ptr<Bucketizer> made;
  if (method == "equal-width") {
    made = std::make_unique<EqualWidthBucketizer>();
  } else if (method == "quantile") {
    made = std::make_unique<QuantileBucketizer>();
  } else if (method == "kmeans-1d") {
    made = std::make_unique<KMeans1DBucketizer>();
  } else if (method == "jenks") {
    made = std::make_unique<JenksBucketizer>();
  } else if (method == "kde") {
    made = std::make_unique<KernelDensityBucketizer>();
  } else {
    return Status::InvalidArgument("unknown bucketizer method: " +
                                   std::string(method));
  }
  return made;
}

}  // namespace podium::bucketing
