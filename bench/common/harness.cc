#include "bench/common/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "podium/baselines/distance_selector.h"
#include "podium/baselines/kmeans_selector.h"
#include "podium/baselines/random_selector.h"
#include "podium/core/greedy.h"
#include "podium/obs/export.h"
#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/stopwatch.h"
#include "podium/util/thread_pool.h"

namespace podium::bench {

namespace {

/// Selector-internal setup seconds recorded so far: the sums of the span
/// histograms the GreedySelector fills before its selection loop.
double SetupSeconds() {
  auto& registry = obs::MetricsRegistry::Global();
  return registry.histogram(obs::SpanMetricName("greedy.setup")).Sum() +
         registry.histogram(obs::SpanMetricName("greedy.init")).Sum();
}

}  // namespace

std::string InitTelemetry(Flags& flags) {
  return flags.String("telemetry-out", "");
}

void FinishTelemetry(const std::string& path) {
  if (path.empty()) return;
  const Status status = obs::WriteTelemetryJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "telemetry export failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  std::printf("\nwrote telemetry to %s\n", path.c_str());
}

std::size_t InitThreads(Flags& flags) {
  const std::int64_t threads = flags.Int("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (0 = automatic)\n");
    std::exit(1);
  }
  util::ThreadPool::SetGlobalThreadCount(static_cast<std::size_t>(threads));
  return util::ThreadPool::GlobalThreadCount();
}

std::vector<std::unique_ptr<Selector>> StandardSelectors(std::uint64_t seed) {
  std::vector<std::unique_ptr<Selector>> selectors;
  selectors.push_back(std::make_unique<GreedySelector>());
  selectors.push_back(std::make_unique<baselines::RandomSelector>(seed));
  baselines::KMeansSelector::Options kmeans;
  kmeans.seed = seed;
  selectors.push_back(std::make_unique<baselines::KMeansSelector>(kmeans));
  selectors.push_back(std::make_unique<baselines::DistanceSelector>());
  return selectors;
}

std::vector<TimedSelection> RunSelectors(
    const std::vector<std::unique_ptr<Selector>>& selectors,
    const DiversificationInstance& instance, std::size_t budget,
    bool concurrent) {
  if (concurrent) {
    // One chunk per selector; failures are collected and reported in
    // selector order after the loop so the abort is deterministic.
    std::vector<TimedSelection> results(selectors.size());
    std::vector<Status> failures(selectors.size());
    util::ParallelFor(
        selectors.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i) {
            util::Stopwatch stopwatch;
            Result<Selection> selection = [&] {
              obs::Span span("select." + selectors[i]->Name());
              return selectors[i]->Select(instance, budget);
            }();
            const double seconds = stopwatch.ElapsedSeconds();
            if (!selection.ok()) {
              failures[i] = selection.status();
              continue;
            }
            results[i] = TimedSelection{selectors[i]->Name(),
                                        std::move(selection).value(), seconds,
                                        0.0, seconds};
          }
        },
        1);
    for (std::size_t i = 0; i < selectors.size(); ++i) {
      if (failures[i].ok()) continue;
      std::fprintf(stderr, "%s failed: %s\n", selectors[i]->Name().c_str(),
                   failures[i].ToString().c_str());
      std::exit(1);
    }
    return results;
  }

  std::vector<TimedSelection> results;
  for (const auto& selector : selectors) {
    const double setup_before = SetupSeconds();
    util::Stopwatch stopwatch;
    Result<Selection> selection = [&] {
      obs::Span span("select." + selector->Name());
      return selector->Select(instance, budget);
    }();
    const double seconds = stopwatch.ElapsedSeconds();
    if (!selection.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", selector->Name().c_str(),
                   selection.status().ToString().c_str());
      std::exit(1);
    }
    const double setup_seconds = SetupSeconds() - setup_before;
    results.push_back(TimedSelection{selector->Name(),
                                     std::move(selection).value(), seconds,
                                     setup_seconds, seconds - setup_seconds});
  }
  return results;
}

void PrintNormalizedTable(const std::vector<std::string>& algorithms,
                          const std::vector<MetricRow>& rows) {
  std::printf("%-34s", "metric (leader absolute value)");
  for (const std::string& name : algorithms) {
    std::printf(" %12s", name.c_str());
  }
  std::printf("\n");
  for (const MetricRow& row : rows) {
    const double leader =
        *std::max_element(row.values.begin(), row.values.end());
    char label[64];
    std::snprintf(label, sizeof(label), "%s (%.4g)", row.metric.c_str(),
                  leader);
    std::printf("%-34s", label);
    for (double value : row.values) {
      if (leader > 0.0) {
        std::printf(" %12.3f", value / leader);
      } else {
        std::printf(" %12.3f", 0.0);
      }
    }
    std::printf("\n");
  }
}

void PrintAbsoluteTable(const std::string& row_header,
                        const std::vector<std::string>& columns,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& cells,
                        int precision) {
  std::printf("%-24s", row_header.c_str());
  for (const std::string& column : columns) {
    std::printf(" %12s", column.c_str());
  }
  std::printf("\n");
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::printf("%-24s", row_labels[r].c_str());
    for (double cell : cells[r]) {
      std::printf(" %12.*f", precision, cell);
    }
    std::printf("\n");
  }
}

void PrintBanner(const std::string& title, const std::string& subtitle) {
  std::printf("=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

}  // namespace podium::bench
