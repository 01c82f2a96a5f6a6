// google-benchmark microbenchmarks for the hot paths: greedy selection,
// group-index construction, the bucketizers, JSON parsing, Jaccard
// distance, and CD-sim.
//
// Custom main: all google-benchmark flags work as usual, plus
//   --bench-out=PATH       write the run as a canonical BENCH_*.json perf
//                          artifact (bench/common/bench_report.h) with
//                          median/p95 per benchmark
//   --bench-repeats=N      repetitions feeding those percentiles (default
//                          3; implies --benchmark_repetitions=N)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common/bench_report.h"
#include "podium/obs/log.h"
#include "podium/util/parse.h"
#include "podium/util/string_util.h"

#include "podium/baselines/distance_selector.h"
#include "podium/bucketing/bucketizer.h"
#include "podium/core/greedy.h"
#include "podium/core/instance.h"
#include "podium/core/kernels.h"
#include "podium/datagen/generator.h"
#include "podium/json/parser.h"
#include "podium/json/writer.h"
#include "podium/metrics/cd_sim.h"
#include "podium/profile/repository_io.h"
#include "podium/util/rng.h"
#include "podium/util/thread_pool.h"

namespace podium {
namespace {

const datagen::Dataset& SharedDataset() {
  static const datagen::Dataset* dataset = [] {
    datagen::DatasetConfig config;
    config.num_users = 2000;
    config.num_restaurants = 4000;
    config.leaf_categories = 60;
    config.holdout_destinations = 0;
    config.seed = 3;
    // Leaked on purpose: shared across benchmarks for the process
    // lifetime.  podium-lint: allow(raw-new)
    return new datagen::Dataset(
        std::move(datagen::GenerateDataset(config)).value());
  }();
  return *dataset;
}

const DiversificationInstance& SharedInstance() {
  static const DiversificationInstance* instance = [] {
    InstanceOptions options;
    options.budget = 8;
    // podium-lint: allow(raw-new) -- same leaked-singleton pattern.
    return new DiversificationInstance(
        DiversificationInstance::Build(SharedDataset().repository, options)
            .value());
  }();
  return *instance;
}

void BM_GroupIndexBuild(benchmark::State& state) {
  const ProfileRepository& repo = SharedDataset().repository;
  GroupingOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupIndex::Build(repo, options));
  }
}
BENCHMARK(BM_GroupIndexBuild)->Unit(benchmark::kMillisecond);

// Thread scaling of the parallel instance build. The arg is the pool
// size; results are byte-identical across rows (the determinism
// contract), only the wall clock moves.
void BM_GroupIndexBuildThreads(benchmark::State& state) {
  const ProfileRepository& repo = SharedDataset().repository;
  GroupingOptions options;
  util::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupIndex::Build(repo, options));
  }
  util::ThreadPool::SetGlobalThreadCount(0);
}
BENCHMARK(BM_GroupIndexBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the greedy Line-2 initialization (marginal gains). A
// budget of 1 makes the selection loop negligible, so the run is dominated
// by setup + init.
void BM_GreedyInitThreads(benchmark::State& state) {
  const DiversificationInstance& instance = SharedInstance();
  GreedySelector selector;
  util::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(instance, 1));
  }
  util::ThreadPool::SetGlobalThreadCount(0);
}
BENCHMARK(BM_GreedyInitThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The retirement inner loop's memory layout: walk every group's member
// list and count alive members, via nested per-group vectors with a
// per-user byte test (arg 0, the pre-CSR layout) vs the CSR spans fed to
// the dispatched counting kernel (arg 1, the layout + kernel the greedy
// actually runs). CSR reads one contiguous values array instead of
// chasing per-group vector headers; the kernel gathers 8 flags per step
// on AVX2 hardware.
void BM_CsrVsNestedRetirement(benchmark::State& state) {
  const GroupIndex& index = SharedInstance().groups();
  std::vector<std::vector<UserId>> nested(index.group_count());
  for (GroupId g = 0; g < index.group_count(); ++g) {
    const auto members = index.members(g);
    nested[g].assign(members.begin(), members.end());
  }
  // The kernel's gather overreads up to kFlagPadding bytes past the
  // largest id (vectors are not arena-backed).
  std::vector<std::uint8_t> in_pool(
      SharedDataset().repository.user_count() + kernels::kFlagPadding, 1);
  const bool use_csr = state.range(0) == 1;
  for (auto _ : state) {
    std::size_t alive = 0;
    if (use_csr) {
      for (GroupId g = 0; g < index.group_count(); ++g) {
        alive += kernels::CountAlive(index.members(g), in_pool.data());
      }
    } else {
      for (GroupId g = 0; g < index.group_count(); ++g) {
        for (UserId u : nested[g]) alive += in_pool[u];
      }
    }
    benchmark::DoNotOptimize(alive);
  }
  state.SetLabel(use_csr ? "csr" : "nested");
}
BENCHMARK(BM_CsrVsNestedRetirement)->Arg(0)->Arg(1);

// Synthetic span for the kernel benchmarks: `length` ids ascending over a
// universe ~8x the span (the density of a mid-size group's member list),
// flags half-retired in a fixed pattern.
struct KernelFixture {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> flags;
  std::vector<double> gains;
  std::vector<double> w0;
  std::vector<double> w1;

  explicit KernelFixture(std::size_t length) {
    const std::size_t universe = length * 8 + 16;
    util::Rng rng(17);
    ids.resize(length);
    for (std::uint32_t& id : ids) {
      id = static_cast<std::uint32_t>(rng.NextBounded(universe));
    }
    std::sort(ids.begin(), ids.end());
    flags.assign(universe + kernels::kFlagPadding, 0);
    for (std::size_t u = 0; u < universe; ++u) flags[u] = (u % 2 == 0) ? 1 : 0;
    gains.assign(universe, 100.0);
    w0.assign(universe, 2.0);
    w1.assign(universe, 3.0);
  }
};

// Retirement counting over a member span in isolation (the alive tally
// RetireSpan fuses into its update, and the CSR row of
// BM_CsrVsNestedRetirement). Arg 0 is the span length, arg 1 pins the
// kernel variant (0 scalar, 1 AVX2 — demoted to scalar when the CPU
// lacks it, so the rows just coincide there).
void BM_RetireKernel(benchmark::State& state) {
  const KernelFixture fixture(static_cast<std::size_t>(state.range(0)));
  const kernels::Variant variant = state.range(1) == 0
                                       ? kernels::Variant::kScalar
                                       : kernels::Variant::kAvx2;
  kernels::ForceVariant(variant);
  const kernels::Variant ran = kernels::ActiveVariant();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::CountAlive(fixture.ids, fixture.flags.data()));
  }
  kernels::ForceVariant(std::nullopt);
  state.SetLabel(std::string(kernels::VariantName(ran)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RetireKernel)->ArgsProduct({{64, 512, 4096}, {0, 1}});

// The marginal-gain accumulation in isolation: fold two tier-split weight
// arrays over a user's group span. Same args as BM_RetireKernel.
void BM_MarginalGainKernel(benchmark::State& state) {
  const KernelFixture fixture(static_cast<std::size_t>(state.range(0)));
  const kernels::Variant variant = state.range(1) == 0
                                       ? kernels::Variant::kScalar
                                       : kernels::Variant::kAvx2;
  kernels::ForceVariant(variant);
  const kernels::Variant ran = kernels::ActiveVariant();
  for (auto _ : state) {
    double gain0 = 0.0;
    double gain1 = 0.0;
    kernels::AccumulateTieredGains(fixture.ids, fixture.w0.data(),
                                   fixture.w1.data(),
                                   /*allow_reassociation=*/true, &gain0,
                                   &gain1);
    benchmark::DoNotOptimize(gain0);
    benchmark::DoNotOptimize(gain1);
  }
  kernels::ForceVariant(std::nullopt);
  state.SetLabel(std::string(kernels::VariantName(ran)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MarginalGainKernel)->ArgsProduct({{64, 512, 4096}, {0, 1}});

void BM_GreedySelect(benchmark::State& state) {
  const DiversificationInstance& instance = SharedInstance();
  GreedySelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector.Select(instance, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_GreedySelect)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_DistanceSelect(benchmark::State& state) {
  const DiversificationInstance& instance = SharedInstance();
  baselines::DistanceSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(instance, 8));
  }
}
BENCHMARK(BM_DistanceSelect)->Unit(benchmark::kMillisecond);

void BM_Bucketizer(benchmark::State& state) {
  static const std::vector<std::string> kMethods = {
      "equal-width", "quantile", "kmeans-1d", "jenks", "kde"};
  const std::string& method = kMethods[static_cast<std::size_t>(
      state.range(0))];
  auto bucketizer = bucketing::MakeBucketizer(method).value();
  util::Rng rng(5);
  std::vector<double> values(10000);
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bucketizer->Split(values, 3));
  }
  state.SetLabel(method);
}
BENCHMARK(BM_Bucketizer)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_JsonParseRepository(benchmark::State& state) {
  // Serialize a repository slice once, then benchmark parsing it back.
  datagen::DatasetConfig config;
  config.num_users = 200;
  config.num_restaurants = 400;
  config.leaf_categories = 30;
  config.holdout_destinations = 0;
  config.seed = 9;
  const datagen::Dataset data =
      std::move(datagen::GenerateDataset(config)).value();
  const std::string text = json::Write(RepositoryToJson(data.repository));
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::Parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseRepository)->Unit(benchmark::kMillisecond);

void BM_JaccardDistance(benchmark::State& state) {
  const ProfileRepository& repo = SharedDataset().repository;
  util::Rng rng(11);
  for (auto _ : state) {
    const UserId a = static_cast<UserId>(rng.NextBounded(repo.user_count()));
    const UserId b = static_cast<UserId>(rng.NextBounded(repo.user_count()));
    benchmark::DoNotOptimize(baselines::JaccardDistance(repo, a, b));
  }
}
BENCHMARK(BM_JaccardDistance);

void BM_CdSim(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<double> f_all(64);
  std::vector<double> f_subset(64);
  for (std::size_t i = 0; i < f_all.size(); ++i) {
    f_all[i] = rng.NextDouble();
    f_subset[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::CdSim(f_subset, f_all));
  }
}
BENCHMARK(BM_CdSim);

/// Console output as usual, plus per-repetition real times collected for
/// the BENCH_micro.json artifact (aggregate rows are skipped — medians
/// are recomputed from the raw samples).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Series {
    std::string unit;
    std::vector<double> samples;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Series& series = series_[run.benchmark_name()];
      series.unit = benchmark::GetTimeUnitString(run.time_unit);
      series.samples.push_back(run.GetAdjustedRealTime());
    }
  }

  const std::map<std::string, Series>& series() const { return series_; }

 private:
  std::map<std::string, Series> series_;
};

}  // namespace
}  // namespace podium

int main(int argc, char** argv) {
  std::string bench_out;
  std::size_t repeats = 3;
  // Strip our flags before handing argv to google-benchmark (which
  // rejects flags it does not know).
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (podium::util::StartsWith(arg, "--bench-out=")) {
      bench_out = arg.substr(12);
    } else if (podium::util::StartsWith(arg, "--bench-repeats=")) {
      const podium::Result<std::size_t> parsed =
          podium::util::ParseSize(arg.substr(16));
      if (!parsed.ok() || parsed.value() == 0) {
        podium::obs::LogError("--bench-repeats must be a positive integer")
            .Str("value", std::string(arg.substr(16)));
        return 2;
      }
      repeats = parsed.value();
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string repetitions_flag;
  if (!bench_out.empty()) {
    repetitions_flag =
        podium::util::StringPrintf("--benchmark_repetitions=%zu", repeats);
    args.push_back(repetitions_flag.data());
  }

  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  podium::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (bench_out.empty()) return 0;
  podium::bench::BenchReport report = podium::bench::NewBenchReport("micro");
  report.repeats = repeats;
  for (const auto& [name, series] : reporter.series()) {
    report.metrics[name] = podium::bench::MakeBenchMetric(
        series.unit, "lower", series.samples);
  }
  const podium::Status written =
      podium::bench::WriteBenchReport(report, bench_out);
  if (!written.ok()) {
    podium::obs::LogError("cannot write bench report")
        .Str("path", bench_out)
        .Str("error", written.ToString());
    return 2;
  }
  std::printf("micro_benchmarks: wrote %s\n", bench_out.c_str());
  return 0;
}
