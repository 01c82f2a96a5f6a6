#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A timing distribution as the benchmark reports it: the median, the p99
/// when at least ten samples lie beyond it, and the sample count.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool has_p99 = false;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank p99 of `count` samples.
std::size_t SamplesBeyondP99(std::size_t count);

Summary Summarize(const std::vector<double>& values);

/// One named value of the final result line or of the printed ledger.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 when the layer did no work on this
  /// workload); printed in the ledger, not in the result line.
  std::size_t count = 1;
  /// Printed beside the value when the distribution supports it.
  bool has_p99 = false;
  double p99 = 0.0;
};

Metric TimingMetric(std::string name, std::string unit,
                    const std::vector<double>& values);

/// Prints the human-readable ledger, one metric per line, to stdout.
void PrintLedger(const std::string& title, const std::vector<Metric>& metrics);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal for `text` (quotes included).
std::string JsonQuote(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
