#include "bench/common/experiments.h"

#include <cstdio>
#include <cstdlib>

#include "bench/common/harness.h"
#include "podium/metrics/intrinsic.h"
#include "podium/metrics/procurement_experiment.h"
#include "podium/util/stopwatch.h"
#include "podium/util/string_util.h"
#include "podium/util/thread_pool.h"

namespace podium::bench {

namespace {

datagen::Dataset MustGenerate(const datagen::DatasetConfig& config,
                              bool print_stats) {
  util::Stopwatch stopwatch;
  Result<datagen::Dataset> dataset = datagen::GenerateDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  if (print_stats) {
    std::printf(
        "dataset: %zu users, %zu properties, %zu reviews, %zu hold-out "
        "destinations (generated in %.1fs)\n",
        dataset->repository.user_count(),
        dataset->repository.property_count(),
        dataset->opinions.review_count(), dataset->holdout.size(),
        stopwatch.ElapsedSeconds());
  }
  return std::move(dataset).value();
}

void AddInto(std::vector<MetricRow>& totals,
             const std::vector<std::vector<double>>& values) {
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (totals[r].values.empty()) {
      totals[r].values.assign(values[r].size(), 0.0);
    }
    for (std::size_t c = 0; c < values[r].size(); ++c) {
      totals[r].values[c] += values[r][c];
    }
  }
}

void DivideBy(std::vector<MetricRow>& totals, double n) {
  for (MetricRow& row : totals) {
    for (double& value : row.values) value /= n;
  }
}

}  // namespace

void RunIntrinsicExperiment(const datagen::DatasetConfig& base_config,
                            std::size_t budget, std::size_t top_k,
                            std::uint64_t selector_seed,
                            const std::string& bucket_method,
                            std::size_t repetitions,
                            bool parallel_selectors) {
  std::vector<std::string> names;
  std::vector<MetricRow> totals = {
      {"total score (LBS/Single)", {}},
      {util::StringPrintf("top-%zu coverage", top_k), {}},
      {"intersected-property cov.", {}},
      {"distribution similarity", {}}};
  std::vector<double> total_seconds;

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    datagen::DatasetConfig config = base_config;
    config.seed = base_config.seed + rep;
    const datagen::Dataset data = MustGenerate(config, rep == 0);

    InstanceOptions options;
    options.grouping.bucket_method = bucket_method;
    options.weight_kind = WeightKind::kLbs;
    options.coverage_kind = CoverageKind::kSingle;
    options.budget = budget;
    util::Stopwatch build_watch;
    Result<DiversificationInstance> instance =
        DiversificationInstance::Build(data.repository, options);
    if (!instance.ok()) {
      std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0) {
      std::printf(
          "instance: %zu groups (grouping in %.1fs), B = %zu, %zu dataset "
          "seeds\n\n",
          instance->groups().group_count(), build_watch.ElapsedSeconds(),
          budget, repetitions);
    }

    const auto selectors = StandardSelectors(selector_seed + rep);
    const auto runs =
        RunSelectors(selectors, instance.value(), budget, parallel_selectors);
    std::vector<std::vector<double>> values(totals.size());
    if (names.empty()) {
      for (const TimedSelection& run : runs) names.push_back(run.name);
      total_seconds.assign(runs.size(), 0.0);
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const metrics::IntrinsicMetrics m = metrics::ComputeIntrinsicMetrics(
          instance.value(), runs[i].selection.users, top_k);
      values[0].push_back(m.total_score);
      values[1].push_back(m.top_k_coverage);
      values[2].push_back(m.intersected_coverage);
      values[3].push_back(m.distribution_similarity);
      total_seconds[i] += runs[i].seconds;
    }
    AddInto(totals, values);
  }
  DivideBy(totals, static_cast<double>(repetitions));
  PrintNormalizedTable(names, totals);

  std::printf("\nmean selection wall-clock seconds:");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("  %s %.2f", names[i].c_str(),
                total_seconds[i] / static_cast<double>(repetitions));
  }
  std::printf("\n");
}

void RunOpinionExperiment(const datagen::DatasetConfig& base_config,
                          std::size_t budget, bool report_usefulness,
                          std::uint64_t selector_seed,
                          const std::string& bucket_method,
                          std::size_t repetitions,
                          bool parallel_selectors) {
  std::vector<std::string> names;
  std::vector<MetricRow> totals = {{"topic+sentiment coverage", {}},
                                   {"usefulness (votes/dest)", {}},
                                   {"rating dist. similarity", {}},
                                   {"rating variance", {}}};

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    datagen::DatasetConfig config = base_config;
    config.seed = base_config.seed + rep;
    const datagen::Dataset data = MustGenerate(config, rep == 0);
    if (data.holdout.empty()) {
      std::fprintf(stderr,
                   "no hold-out destinations were produced; raise review "
                   "volume or lower min_holdout_reviews\n");
      std::exit(1);
    }
    if (rep == 0) {
      std::size_t total_reviews = 0;
      for (opinion::DestinationId d : data.holdout) {
        total_reviews += data.opinions.reviews_of(d).size();
      }
      std::printf(
          "hold-out: %zu destinations, %.0f reviews on average, B = %zu, "
          "%zu dataset seeds\n\n",
          data.holdout.size(),
          static_cast<double>(total_reviews) /
              static_cast<double>(data.holdout.size()),
          budget, repetitions);
    }

    metrics::ProcurementOptions options;
    options.budget = budget;
    options.instance.budget = budget;
    options.instance.grouping.bucket_method = bucket_method;

    const auto selectors = StandardSelectors(selector_seed + rep);
    std::vector<std::vector<double>> values(totals.size());
    // Each selector's experiment is independent; with parallel_selectors
    // they run as one chunk-per-selector loop. Failures and the rep-0
    // progress lines are reported after the loop, in selector order.
    std::vector<metrics::ProcurementResult> results(selectors.size());
    std::vector<Status> failures(selectors.size());
    std::vector<double> seconds(selectors.size(), 0.0);
    auto run_one = [&](std::size_t i) {
      util::Stopwatch stopwatch;
      Result<metrics::ProcurementResult> result =
          metrics::RunProcurementExperiment(data.repository, data.opinions,
                                            data.holdout, *selectors[i],
                                            options);
      seconds[i] = stopwatch.ElapsedSeconds();
      if (!result.ok()) {
        failures[i] = result.status();
        return;
      }
      results[i] = std::move(result).value();
    };
    if (parallel_selectors) {
      util::ParallelFor(
          selectors.size(),
          [&](std::size_t begin, std::size_t end, std::size_t) {
            for (std::size_t i = begin; i < end; ++i) run_one(i);
          },
          1);
    } else {
      for (std::size_t i = 0; i < selectors.size(); ++i) run_one(i);
    }
    for (std::size_t i = 0; i < selectors.size(); ++i) {
      if (!failures[i].ok()) {
        std::fprintf(stderr, "%s failed: %s\n", selectors[i]->Name().c_str(),
                     failures[i].ToString().c_str());
        std::exit(1);
      }
      if (names.size() < selectors.size()) {
        names.push_back(selectors[i]->Name());
      }
      values[0].push_back(results[i].average.topic_sentiment_coverage);
      values[1].push_back(results[i].average.usefulness);
      values[2].push_back(results[i].average.rating_distribution_similarity);
      values[3].push_back(results[i].average.rating_variance);
      if (rep == 0) {
        std::printf("%s: evaluated %zu destinations in %.1fs\n",
                    selectors[i]->Name().c_str(),
                    results[i].per_destination.size(), seconds[i]);
      }
    }
    AddInto(totals, values);
  }
  DivideBy(totals, static_cast<double>(repetitions));
  std::printf("\n");

  std::vector<MetricRow> rows = {totals[0]};
  if (report_usefulness) rows.push_back(totals[1]);
  rows.push_back(totals[2]);
  rows.push_back(totals[3]);
  PrintNormalizedTable(names, rows);
}

}  // namespace podium::bench
