// Differential-correctness driver: generates small seeded instances and
// asserts that the naïve Algorithm-1 oracle, the optimized greedy (at
// 1/2/8 threads, under forced-scalar and native SIMD kernels, and at
// budget = user count, where runs end in the zero-gain tail), the
// customized path, and the serve-layer SelectionService all agree byte
// for byte — then fuzzes the JSON and HTTP parsers through their
// production entry points. Under --shard-sweep the sharded engine must
// match the oracle as well: the single-snapshot oracle at K=1, and at K>1
// the oracle run over the union of the oracle's round-1 pools.
//
// Exit status is nonzero on any divergence; every message carries the
// round seed, so a failure reproduces with --seed=<printed> --rounds=1.
//
//   podium_check --rounds=50 --seed=1 --fuzz-iters=200
//   podium_check --rounds=1 --seed=1729        # replay one round
//   podium_check --serve=false --threads=      # core selectors only
//   podium_check --kernel-sweep=false          # ambient kernel variant only
//   podium_check --shard-sweep                 # + sharded engine, K=1,2,8
//   podium_check --shard-sweep --shards=1,4    # custom shard counts

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common/flags.h"
#include "podium/obs/log.h"
#include "podium/util/parse.h"
#include "podium/check/differential.h"
#include "podium/check/fuzz.h"

namespace {

std::vector<std::size_t> ParseSizeList(const char* flag,
                                       const std::string& spec) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (!token.empty()) {
      const podium::Result<std::size_t> count = podium::util::ParseSize(token);
      if (!count.ok() || count.value() == 0) {
        podium::obs::LogError("bad count in list flag")
            .Str("flag", flag)
            .Str("value", token);
        std::exit(2);
      }
      counts.push_back(count.value());
    }
    pos = comma + 1;
  }
  return counts;
}

void PrintFailures(const char* stage,
                   const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    podium::obs::LogError("differential check failed")
        .Str("stage", stage)
        .Str("detail", failure);
  }
}

}  // namespace

int main(int argc, char** argv) {
  podium::bench::Flags flags(argc, argv);
  podium::check::DiffOptions options;
  options.seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  options.rounds = static_cast<int>(flags.Int("rounds", 25));
  options.thread_counts =
      ParseSizeList("--threads", flags.String("threads", "1,2,8"));
  options.with_serve = flags.Bool("serve", true);
  options.sweep_kernel_variants = flags.Bool("kernel-sweep", true);
  if (flags.Bool("shard-sweep", false)) {
    options.shard_counts =
        ParseSizeList("--shards", flags.String("shards", "1,2,8"));
    options.shard_thread_counts =
        ParseSizeList("--shard-threads", flags.String("shard-threads", "1,8"));
  }
  const int fuzz_iters = static_cast<int>(flags.Int("fuzz-iters", 100));
  flags.CheckConsumed();

  const podium::check::DiffReport diff =
      podium::check::RunDifferential(options);
  std::printf("differential: %d rounds, %zu divergences\n", diff.rounds_run,
              diff.divergences.size());
  PrintFailures("differential", diff.divergences);

  const podium::check::FuzzReport json_fuzz =
      podium::check::FuzzJson(options.seed, fuzz_iters);
  std::printf("json fuzz: %d iterations, %zu failures\n",
              json_fuzz.iterations, json_fuzz.failures.size());
  PrintFailures("json-fuzz", json_fuzz.failures);

  const podium::check::FuzzReport http_fuzz =
      podium::check::FuzzHttpRequests(options.seed, fuzz_iters);
  std::printf("http fuzz: %d iterations, %zu failures\n",
              http_fuzz.iterations, http_fuzz.failures.size());
  PrintFailures("http-fuzz", http_fuzz.failures);

  const bool ok = diff.ok() && json_fuzz.ok() && http_fuzz.ok();
  std::printf("%s\n", ok ? "OK" : "DIVERGENCE DETECTED");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
