#ifndef PODIUM_BENCH_COMMON_HARNESS_H_
#define PODIUM_BENCH_COMMON_HARNESS_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/flags.h"
#include "podium/core/instance.h"
#include "podium/core/selection.h"

namespace podium::bench {

/// Experiment-binary telemetry wiring: enables podium::telemetry (span
/// histograms, counters, gauges) and consumes the --telemetry-out flag.
/// Returns the flag's value — the path the JSON export should be written
/// to — or "" when the flag was absent. Call before CheckConsumed().
std::string InitTelemetry(Flags& flags);

/// When `path` is non-empty, writes the telemetry JSON export (schema in
/// DESIGN.md §"Telemetry & profiling") to it and prints a note. Call at
/// the end of main().
void FinishTelemetry(const std::string& path);

/// Consumes --threads (0 = automatic: PODIUM_THREADS env, then
/// hardware_concurrency) and sizes the global thread pool accordingly.
/// Returns the pool size in effect. Call before CheckConsumed().
std::size_t InitThreads(Flags& flags);

/// The four standard selectors of Section 8.3 (Podium + the baselines),
/// ready to run over one instance.
std::vector<std::unique_ptr<Selector>> StandardSelectors(std::uint64_t seed);

/// Selection plus wall-clock time for one algorithm.
struct TimedSelection {
  std::string name;
  Selection selection;
  /// Whole Select() call, wall clock.
  double seconds = 0.0;
  /// The selector's internal pre-algorithm work (pool materialization,
  /// rank tables, marginal-gain initialization): the growth of the
  /// greedy.setup + greedy.init span histograms over the call. 0 for
  /// uninstrumented selectors or when telemetry is disabled.
  double setup_seconds = 0.0;
  /// `seconds - setup_seconds`: the algorithm proper. Scalability figures
  /// report this so instance-construction cost is not attributed to the
  /// selection loop.
  double select_seconds = 0.0;
};

/// Runs every selector on the instance; aborts on error (experiment
/// binaries treat selector failures as fatal). With `concurrent` set, the
/// selectors run as one parallel loop over the pool — results stay in
/// selector order and selections are unchanged, but per-selector wall
/// clocks overlap and the span-based setup/select split is unavailable
/// (setup_seconds stays 0), so quality sweeps use it and timing figures
/// must not.
std::vector<TimedSelection> RunSelectors(
    const std::vector<std::unique_ptr<Selector>>& selectors,
    const DiversificationInstance& instance, std::size_t budget,
    bool concurrent = false);

/// Figure-style table: rows are metrics, columns are algorithms, scores
/// normalized to the per-metric leader (as in the paper's Figure 3, which
/// shows "scores normalized relative to the leading algorithm's score"
/// and annotates the leader's absolute value).
struct MetricRow {
  std::string metric;
  std::vector<double> values;  // one per algorithm, absolute
};
void PrintNormalizedTable(const std::vector<std::string>& algorithms,
                          const std::vector<MetricRow>& rows);

/// Plain table of absolute values.
void PrintAbsoluteTable(const std::string& row_header,
                        const std::vector<std::string>& columns,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& cells,
                        int precision = 3);

/// Prints the experiment banner (name + dataset stats line).
void PrintBanner(const std::string& title, const std::string& subtitle);

}  // namespace podium::bench

#endif  // PODIUM_BENCH_COMMON_HARNESS_H_
