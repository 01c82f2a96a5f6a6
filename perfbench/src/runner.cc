// perfbench_runner — the repository benchmark's runner (see ../README.md).
//
//   perfbench_runner --workload=hit|miss|shard --seed=N --seconds=S
//                    --trace=0|1 --serve-binary=PATH --out-dir=DIR
//                    [--server-arg=FLAG]...
//
// Generates the workload's profiles from the seed, computes every
// distinct request's reference reply in-process, starts a fresh
// podium_serve on those profiles, drives it over HTTP in a serial phase
// (1 client) and a loaded phase (4 clients), checks every reply byte for
// byte, and prints the end-to-end metrics (--trace=0) or the per-layer
// ledger (--trace=1) as the last line of stdout. --server-arg adds a flag
// to the server's command line; the self-test uses it to break the server
// on purpose.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "http_phase.h"
#include "layers.h"
#include "server.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// Clients of the loaded phase: nproc on the 4-core VM the recorded
/// numbers come from, and the server's default --max-concurrency.
constexpr std::size_t kLoadedClients = 4;
/// Servers an untraced run starts, one after another. Each is measured
/// for kRoundsPerServer rounds, so the result does not hang on one
/// process's placement in memory; setup_s and peak_rss_mib are the
/// medians over the servers. The traced run measures one server for
/// kTracedRounds rounds.
constexpr int kServers = 3;
constexpr int kRoundsPerServer = 2;
constexpr int kTracedRounds = 5;
/// Other tenants of a shared host only ever slow a round down, so the
/// end-to-end timings are read at this quantile of their rounds (loaded_rps
/// at 1 minus it): the program's speed in the quieter stretches of the
/// run, which outside load over fewer than three quarters of the rounds
/// does not move.
constexpr double kQuietQuantile = 0.25;
/// A phase that reports a p99 runs until at least ten samples lie beyond
/// it.
constexpr std::size_t kP99Samples = 1000;
/// Share of --seconds spent in the serial phase; the loaded phase gets
/// the rest. Both are split over the run's alternating rounds.
constexpr double kSerialShare = 0.5;
/// No phase runs longer than this, whatever its sample target.
constexpr double kMaxPhaseSeconds = 75.0;
constexpr double kServerStartTimeout = 120.0;
/// The layer-sum checks pass when the residual is within this share of
/// the total it explains, plus an absolute allowance for timer and
/// scheduling noise on sub-millisecond totals.
constexpr double kSumTolerance = 0.15;
constexpr double kSumAllowanceMs = 0.05;

/// The seed whose reference replies are pinned below.
constexpr std::uint64_t kDefaultSeed = 1;
/// Digest (ReplyDigest) of each workload's reference replies at
/// kDefaultSeed. A change that alters the served bytes fails here even
/// when the server and the in-process reference change together.
const std::map<std::string, std::uint64_t> kPinnedDigests = {
    {"hit", 0x51fde716434cbc0cULL},
    {"miss", 0x3ba2699d099495dbULL},
    {"shard", 0xc5a4912a913af2a8ULL},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;
  std::string out_dir;
  std::vector<std::string> server_args;
};

/// A failure that ends the run without a result. Thrown, so the server is
/// stopped and the generated profiles are removed on the way out.
struct Fatal {
  std::string message;
};

[[noreturn]] void Die(const std::string& message) { throw Fatal{message}; }

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "serve-binary") {
      args.serve_binary = value;
    } else if (key == "out-dir") {
      args.out_dir = value;
    } else if (key == "server-arg") {
      args.server_args.push_back(value);
    } else {
      Die("unknown flag --" + key);
    }
  }
  if (args.workload.empty() || args.serve_binary.empty() ||
      args.out_dir.empty() || !(args.seconds > 0)) {
    Die("--workload, --serve-binary, --out-dir and --seconds > 0 are required");
  }
  return args;
}

template <typename T>
T Unwrap(podium::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Removes the generated profiles when the run ends, however it ends.
struct ScopedFile {
  explicit ScopedFile(std::string file) : path(std::move(file)) {}
  ScopedFile(const ScopedFile&) = delete;
  ScopedFile& operator=(const ScopedFile&) = delete;
  ~ScopedFile() { std::remove(path.c_str()); }

  const std::string path;
};

std::vector<double> Collect(const std::vector<Sample>& samples,
                            double (*field)(const Sample&)) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& sample : samples) values.push_back(field(sample));
  return values;
}

double Rtt(const Sample& s) { return s.rtt_ms; }
double Queue(const Sample& s) { return s.queue_ms; }
double Run(const Sample& s) { return s.run_ms; }
double Overhead(const Sample& s) { return s.rtt_ms - s.queue_ms - s.run_ms; }
double ReplyKib(const Sample& s) { return s.bytes / 1024.0; }

/// The p99 of the round trips, each first replaced by the kQuietQuantile
/// of its request body's round trips: the tail the request mix makes (the
/// largest budgets, explain replies, overrides), without the scheduling
/// stalls a shared host adds to random requests. Every body is sent once
/// per epoch, so each body's quantile is over as many samples as the run
/// has epochs.
double MixP99(const std::vector<Sample>& samples) {
  std::map<std::uint32_t, std::vector<double>> by_body;
  for (const Sample& sample : samples) {
    by_body[sample.body].push_back(sample.rtt_ms);
  }
  std::vector<std::pair<double, std::size_t>> typical;  // rtt, samples
  for (const auto& [body, rtt] : by_body) {
    typical.emplace_back(Percentile(rtt, kQuietQuantile), rtt.size());
  }
  std::sort(typical.begin(), typical.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(samples.size())));
  std::size_t seen = 0;
  for (const auto& [rtt, count] : typical) {
    seen += count;
    if (seen >= rank) return rtt;
  }
  return 0.0;
}

Metric Ratio(std::string name, std::size_t part, std::size_t whole) {
  Metric metric{std::move(name),
                whole == 0 ? 0.0
                           : static_cast<double>(part) /
                                 static_cast<double>(whole),
                "ratio"};
  metric.count = whole;
  return metric;
}

/// One kind of phase, pooled over the rounds it ran in.
struct Pooled {
  explicit Pooled(std::string phase_name) : name(std::move(phase_name)) {}

  std::string name;
  std::vector<Sample> samples;
  std::vector<double> round_p50_ms;  // median round trip per round
  std::vector<double> round_rps;     // 2xx completions per second per round
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<Span> spans;

  void Add(const PhaseResult& phase) {
    round_p50_ms.push_back(Percentile(Collect(phase.samples, Rtt), 0.5));
    round_rps.push_back(static_cast<double>(phase.samples.size()) /
                        phase.wall_seconds);
    samples.insert(samples.end(), phase.samples.begin(), phase.samples.end());
    attempted += phase.attempted;
    failed += phase.failed;
    if (first_error.empty()) first_error = phase.first_error;
    wall_seconds += phase.wall_seconds;
    cpu_seconds += phase.runner_cpu_cores * phase.wall_seconds;
    spans.insert(spans.end(), phase.spans.begin(), phase.spans.end());
  }

  /// The benchmark process's CPU use during these phases, in cores.
  double RunnerCpuCores() const {
    return wall_seconds > 0 ? cpu_seconds / wall_seconds : 0.0;
  }

  void Print() const {
    std::printf("  phase %-14s %zu rounds %8zu sent %6zu failed %8.2fs  "
                "runner CPU %.2f cores\n",
                name.c_str(), round_p50_ms.size(), attempted, failed,
                wall_seconds, RunnerCpuCores());
    std::printf("    per round: p50 ms");
    for (double value : round_p50_ms) std::printf(" %.3f", value);
    std::printf(" | req/s");
    for (double value : round_rps) std::printf(" %.1f", value);
    std::printf("\n");
    if (!first_error.empty()) {
      std::printf("    first failure: %s\n", first_error.c_str());
    }
  }
};

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  char fields[160];
  for (const Span& span : spans) {
    std::snprintf(fields, sizeof(fields),
                  "\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request), span.start_us,
                  span.end_us);
    out << "{\"name\": " << JsonQuote(span.name) << ", " << fields;
  }
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec spec =
      Unwrap(MakeWorkload(args.workload, args.seed), "workload");
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string work_dir = args.out_dir + "/work";
  const std::string trace_dir = args.out_dir + "/traces";
  ::mkdir(work_dir.c_str(), 0755);
  const std::string tag =
      spec.name + "-seed" + std::to_string(args.seed) + "-" +
      std::to_string(::getpid());
  ScopedFile profiles{work_dir + "/" + tag + ".profiles.json"};

  const double inputs_start_us = NowUs();
  const podium::Status written = WriteProfiles(spec, profiles.path);
  if (!written.ok()) Die("cannot write profiles: " + written.ToString());
  const double profiles_written_us = NowUs();

  std::vector<Metric> setup_layers;
  std::vector<Span> spans;
  SnapshotPtr snapshot = Unwrap(
      LoadSnapshot(spec, profiles.path, args.trace ? &setup_layers : nullptr,
                   args.trace ? &spans : nullptr),
      "snapshot");
  const RequestMix mix =
      Unwrap(MakeRequestMix(spec, args.seed, *snapshot), "request mix");
  const std::vector<std::string> references =
      Unwrap(ReferenceReplies(snapshot, mix.bodies), "reference replies");

  std::vector<std::string> guard_failures;
  const std::uint64_t digest = ReplyDigest(mix.bodies, references);
  std::printf("perfbench %s seed=%llu trace=%d: %zu distinct bodies, "
              "reference digest %016llx\n"
              "  inputs: profiles generated and written in %.2fs, loaded, "
              "built and replied to in-process in %.2fs\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, mix.bodies.size(),
              static_cast<unsigned long long>(digest),
              (profiles_written_us - inputs_start_us) / 1e6,
              (NowUs() - profiles_written_us) / 1e6);
  if (args.seed == kDefaultSeed) {
    const auto pinned = kPinnedDigests.find(spec.name);
    if (pinned != kPinnedDigests.end() && pinned->second != digest) {
      guard_failures.push_back("reference replies differ from the pinned "
                               "digest of the default seed");
    }
  }
  if (!args.trace) snapshot.reset();

  std::vector<std::string> server_args = {"--profiles=" + profiles.path,
                                          "--port=0"};
  server_args.insert(server_args.end(), spec.server_flags.begin(),
                     spec.server_flags.end());
  server_args.insert(server_args.end(), args.server_args.begin(),
                     args.server_args.end());

  const Traffic traffic{&mix.bodies, &references, &mix.stream, mix.epoch};
  ServerProcess server;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t stream_offset = 0;
  const auto run = [&](PhaseOptions options, Pooled* pooled) {
    options.port = server.port();
    options.stream_offset = stream_offset;
    const PhaseResult phase = RunPhase(options, traffic);
    // The next phase starts on an epoch boundary even when a loaded client
    // raced past this one's.
    stream_offset = (stream_offset + phase.stream_used + mix.epoch - 1) /
                    mix.epoch * mix.epoch;
    attempted += phase.attempted;
    failed += phase.failed;
    if (pooled != nullptr) pooled->Add(phase);
    return phase;
  };
  PhaseOptions fill;
  fill.name = "fill";
  fill.each_body_once = true;

  // The phases alternate over the run's rounds, and the end-to-end
  // timings are read from its quieter rounds (kQuietQuantile).
  const int servers = args.trace ? 1 : kServers;
  const int rounds_per_server = args.trace ? kTracedRounds : kRoundsPerServer;
  const int rounds = servers * rounds_per_server;
  PhaseOptions serial;
  serial.name = "serial";
  serial.clients = 1;
  serial.seconds = kSerialShare * args.seconds / rounds;
  serial.min_samples = (kP99Samples + rounds - 1) / rounds;
  serial.max_seconds = kMaxPhaseSeconds / rounds;
  PhaseOptions loaded;
  loaded.name = "loaded";
  loaded.clients = kLoadedClients;
  loaded.seconds = (1.0 - kSerialShare) * args.seconds / rounds;
  loaded.max_seconds = kMaxPhaseSeconds / rounds;
  loaded.trace = args.trace;
  // The traced run reports the loaded phase's queue p99 too.
  if (args.trace) loaded.min_samples = serial.min_samples;
  PhaseOptions traced = serial;
  traced.name = "traced-serial";
  traced.trace = true;

  // Untraced serial rounds give the end-to-end numbers, and in the traced
  // run the baseline its tracing overhead is measured against.
  Pooled plain_serial{"serial"};
  Pooled traced_serial{"traced-serial"};
  Pooled loaded_pool{args.trace ? "traced-loaded" : "loaded"};
  std::vector<double> setup_seconds;
  std::vector<double> peak_rss_mib;
  std::map<std::string, double> counters_before;
  std::map<std::string, double> counters_after;
  std::string error;
  for (int s = 0; s < servers; ++s) {
    double seconds = 0.0;
    if (!server.Start(args.serve_binary, server_args, kServerStartTimeout,
                      &seconds, &error)) {
      Die("cannot start podium_serve: " + error);
    }
    setup_seconds.push_back(seconds);
    // Every distinct body once before timing: fills hit's cache and warms
    // each server.
    const PhaseResult filled = run(fill, nullptr);
    if (!filled.first_error.empty()) {
      std::printf("  fill: first failure: %s\n", filled.first_error.c_str());
    }
    if (args.trace && !server.Counters(&counters_before, &error)) Die(error);
    for (int round = 0; round < rounds_per_server; ++round) {
      run(serial, &plain_serial);
      if (args.trace) run(traced, &traced_serial);
      run(loaded, &loaded_pool);
    }
    if (args.trace && !server.Counters(&counters_after, &error)) Die(error);
    double mib = 0.0;
    if (!server.PeakRssMib(&mib, &error)) Die(error);
    peak_rss_mib.push_back(mib);
    server.Stop();
  }
  for (const Pooled* pooled : {&plain_serial, &traced_serial, &loaded_pool}) {
    if (!pooled->samples.empty() || pooled->attempted > 0) pooled->Print();
  }

  const Pooled& serial_phase = args.trace ? traced_serial : plain_serial;
  const Pooled& loaded_phase = loaded_pool;
  const std::vector<double> serial_rtt = Collect(serial_phase.samples, Rtt);
  const Summary serial_summary = Summarize(serial_rtt);

  // Regime guards.
  std::size_t hits = 0;
  std::size_t coalesced = 0;
  for (const Pooled* phase : {&serial_phase, &loaded_phase}) {
    for (const Sample& sample : phase->samples) {
      hits += sample.cache_hit ? 1 : 0;
      coalesced += sample.coalesced ? 1 : 0;
    }
  }
  const std::size_t timed = serial_phase.samples.size() +
                            loaded_phase.samples.size();
  const double hit_ratio =
      timed == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(timed);
  std::printf("  hit ratio %.4f over %zu timed replies\n", hit_ratio, timed);
  if (spec.name == "hit" && hit_ratio < 0.99) {
    guard_failures.push_back("hit ratio below 0.99 on hit");
  }
  if (spec.name != "hit" && hits > 0) {
    guard_failures.push_back("hit ratio above 0 on " + spec.name);
  }
  if (!serial_summary.has_p99 ||
      (args.trace && SamplesBeyondP99(loaded_phase.samples.size()) < 10)) {
    guard_failures.push_back("a phase left fewer than 10 samples beyond its "
                             "reported p99");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    Metric p50{"serial_p50_ms",
               Percentile(serial_phase.round_p50_ms, kQuietQuantile), "ms"};
    p50.count = serial_summary.count;
    Metric p99{"serial_p99_ms", MixP99(serial_phase.samples), "ms"};
    p99.count = serial_summary.count;
    Metric rps{"loaded_rps",
               Percentile(loaded_phase.round_rps, 1.0 - kQuietQuantile),
               "req/s"};
    rps.count = loaded_phase.samples.size();
    Metric setup = TimingMetric("setup_s", "s", setup_seconds);
    Metric rss = TimingMetric("peak_rss_mib", "MiB", peak_rss_mib);
    metrics = {p50, p99, rps, setup, rss};
  } else {
    const ReplayResult replay =
        Unwrap(ReplayLayers(spec, snapshot, mix, references), "layer replay");
    if (replay.mismatches > 0) {
      guard_failures.push_back("the in-process replay serialized " +
                               std::to_string(replay.mismatches) +
                               " replies that differ from the reference");
    }
    const Metric overhead = TimingMetric(
        "http.overhead_ms", "ms", Collect(serial_phase.samples, Overhead));
    const Metric run_serial =
        TimingMetric("serve.run_ms", "ms", Collect(serial_phase.samples, Run));
    const Metric queue_serial = TimingMetric(
        "serve.queue_serial_ms", "ms", Collect(serial_phase.samples, Queue));
    const Metric run_loaded = TimingMetric(
        "serve.run_loaded_ms", "ms", Collect(loaded_phase.samples, Run));
    const Summary queue_loaded =
        Summarize(Collect(loaded_phase.samples, Queue));

    // Layer sums: the server-side parts against the client's median, and
    // the in-process layer calls against SelectionService::Select.
    const double http_residual = serial_summary.p50 - overhead.value -
                                 queue_serial.value - run_serial.value;
    const bool http_ok = std::abs(http_residual) <=
                         kSumTolerance * serial_summary.p50 + kSumAllowanceMs;
    const bool service_ok =
        std::abs(replay.unattributed_ms) <=
        kSumTolerance * replay.service_ms + kSumAllowanceMs;
    std::printf("  layer sum (HTTP): p50 %.4f ms = overhead %.4f + queue "
                "%.4f + run %.4f + residual %.4f -> %s\n",
                serial_summary.p50, overhead.value, queue_serial.value,
                run_serial.value, http_residual, http_ok ? "ok" : "FAILED");
    std::printf("  layer sum (in-process): service %.4f ms/call, residual "
                "%.4f -> %s  (tolerance %.0f%% + %.2f ms)\n",
                replay.service_ms, replay.unattributed_ms,
                service_ok ? "ok" : "FAILED", kSumTolerance * 100,
                kSumAllowanceMs);
    if (!http_ok || !service_ok) {
      guard_failures.push_back("a layer sum is outside its tolerance");
    }

    // Every override names weights and coverage other than the
    // snapshot's default, so each one that runs needs a pooled instance.
    std::size_t instance_needed = 0;
    for (const Pooled* phase : {&serial_phase, &loaded_phase}) {
      for (const Sample& sample : phase->samples) {
        if (!sample.cache_hit &&
            mix.kinds[sample.body] == RequestKind::kOverride) {
          ++instance_needed;
        }
      }
    }
    const auto delta = [&](const std::string& name) {
      const auto after = counters_after.find(name);
      if (after == counters_after.end()) return 0.0;
      const auto before = counters_before.find(name);
      return after->second -
             (before == counters_before.end() ? 0.0 : before->second);
    };
    Metric builds{"serve.instance_builds",
                  static_cast<double>(instance_needed) -
                      delta("serve.batch.instance_reuse"),
                  "count"};
    builds.count = instance_needed;

    Metric queue{"serve.queue_ms", queue_loaded.p50, "ms"};
    queue.count = queue_loaded.count;
    queue.has_p99 = queue_loaded.has_p99;
    queue.p99 = queue_loaded.p99;
    Metric queue_p99{"serve.queue_p99_ms", queue_loaded.p99, "ms"};
    queue_p99.count = queue_loaded.count;
    Metric contention{"util.contention",
                      run_serial.value > 0
                          ? run_loaded.value / run_serial.value
                          : 0.0,
                      "ratio"};
    contention.count = std::min(run_serial.count, run_loaded.count);
    metrics = {
        overhead,
        TimingMetric("http.reply_kib", "KiB",
                     Collect(serial_phase.samples, ReplyKib)),
        Ratio("serve.hit_ratio", hits, timed),
        Ratio("serve.coalesced_ratio", coalesced, timed),
        queue,
        queue_p99,
        run_serial,
        run_loaded,
        builds,
        contention,
    };
    metrics.insert(metrics.end(), replay.metrics.begin(), replay.metrics.end());
    metrics.insert(metrics.end(), setup_layers.begin(), setup_layers.end());
    Metric unattributed{"bench.unattributed_ms", http_residual, "ms"};
    unattributed.count = serial_summary.count;
    Metric service_unattributed{"bench.service_unattributed_ms",
                                replay.unattributed_ms, "ms"};
    Metric trace_overhead{"bench.trace_overhead_ms",
                          Percentile(traced_serial.round_p50_ms, 0.5) -
                              Percentile(plain_serial.round_p50_ms, 0.5),
                          "ms"};
    trace_overhead.count = serial_summary.count;
    metrics.push_back(unattributed);
    metrics.push_back(service_unattributed);
    metrics.push_back(trace_overhead);
    spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());

    // The server's own counters over the traced phases; one it no longer
    // exports reads "missing", never 0.
    static const char* const kExpected[] = {
        "greedy.runs",          "greedy.rounds",
        "greedy.heap_pops",     "greedy.retired_links",
        "greedy.retired_groups", "serve.requests",
        "serve.errors",         "serve.cache.hits",
        "serve.cache.misses",   "serve.singleflight.leader"};
    std::set<std::string> names(std::begin(kExpected), std::end(kExpected));
    for (const auto& [name, value] : counters_after) {
      if (name.rfind("greedy.", 0) == 0 || name.rfind("serve.", 0) == 0) {
        names.insert(name);
      }
    }
    std::printf("  server counters over the traced phases:\n");
    for (const std::string& name : names) {
      if (counters_after.count(name) == 0) {
        std::printf("    %-40s missing\n", name.c_str());
      } else {
        std::printf("    %-40s %.0f\n", name.c_str(), delta(name));
      }
    }
  }
  for (const Pooled* phase : {&serial_phase, &loaded_phase}) {
    spans.insert(spans.end(), phase->spans.begin(), phase->spans.end());
  }
  Metric cpu_serial{"bench.runner_cpu_serial", serial_phase.RunnerCpuCores(),
                    "cores"};
  Metric cpu_loaded{"bench.runner_cpu_loaded", loaded_phase.RunnerCpuCores(),
                    "cores"};
  std::vector<Metric> ledger = metrics;
  ledger.push_back(cpu_serial);
  ledger.push_back(cpu_loaded);
  if (args.trace) metrics = ledger;
  PrintLedger("  " + std::string(args.trace ? "per-layer" : "end-to-end") +
                  " metrics (value = median; n = samples):",
              ledger);

  if (args.trace) {
    ::mkdir(trace_dir.c_str(), 0755);
    const std::string path = trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!WriteSpans(path, spans)) Die("cannot write " + path);
    std::printf("  %zu spans written to %s\n", spans.size(), path.c_str());
  }
  for (const std::string& failure : guard_failures) {
    std::printf("  GUARD FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "perfbench: guard failed: %s\n", failure.c_str());
  }
  const bool correct = guard_failures.empty() && failed == 0;
  std::printf("%s\n",
              ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::Fatal& fatal) {
    std::fprintf(stderr, "perfbench: %s\n", fatal.message.c_str());
    return 2;
  }
}
