// podium_serve — the Podium selection service: an HTTP/1.1 front end over
// a shared immutable snapshot (repository + prebuilt group index), a
// bounded admission queue, and an LRU result cache.
//
//   podium_serve --profiles=FILE [--port=8080] [--address=127.0.0.1]
//                [--threads=N] [--http-threads=8]
//                [--max-concurrency=4] [--max-queue=64]
//                [--deadline-ms=5000] [--cache-entries=1024]
//                [--bucket=METHOD] [--buckets=K] [--weights=Iden|LBS|EBS]
//                [--coverage=Single|Prop] [--budget=B]
//                [--shards=K] [--shard-strategy=hash|group-affine]
//   podium_serve --generate=tripadvisor|yelp [--users=N] [--seed=S]
//                [--generate-out=FILE] ...
//
// --generate-out writes the generated repository to FILE (JSON or CSV by
// extension) and configures /v1/reload to re-read it — so reload is
// exercisable without a pre-existing profiles file.
//
// Endpoints:
//   POST /v1/select  {"budget": 8, "selector": "greedy",
//                     "weights": "LBS", "coverage": "Single",
//                     "must_have": [...], "must_not": [...],
//                     "priority": [...], "explain": true,
//                     "deadline_ms": 2000}
//                    every field optional; "selector" accepts only
//                    "greedy" (anything else is a 400 naming it), and
//                    replies echo it
//   GET  /healthz    liveness + snapshot generation/size/age
//   GET  /metrics    telemetry JSON (counters, gauges, span histograms);
//                    ?format=prometheus for Prometheus text exposition
//   GET  /v1/traces  recent request traces (span trees) from the in-memory
//                    trace ring; ?limit=N caps the count
//   POST /v1/reload  rebuild the snapshot from --profiles and swap it in
//                    atomically (in-flight requests finish on the old one)
//
// Timings and cache status are reported in X-Podium-* response headers so
// cached bodies stay byte-identical to uncached ones. Every response
// carries X-Podium-Trace-Id (client-supplied 32-hex ids are adopted), and
// each request emits a JSON access-log line on stderr; every
// --trace-log-every'th line also carries the request's span tree.

#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench/common/flags.h"
#include "podium/datagen/generator.h"
#include "podium/obs/log.h"
#include "podium/profile/repository_io.h"
#include "podium/serve/handlers.h"
#include "podium/serve/http_server.h"
#include "podium/serve/service.h"
#include "podium/util/string_util.h"
#include "podium/util/thread_pool.h"

namespace {

using podium::util::EndsWith;

template <typename T>
T Unwrap(podium::Result<T> result) {
  if (!result.ok()) {
    podium::obs::LogError("podium_serve startup failed")
        .Str("error", result.status().ToString());
    std::exit(1);
  }
  return std::move(result).value();
}

podium::ProfileRepository LoadProfiles(const std::string& path) {
  if (EndsWith(path, ".csv")) {
    return Unwrap(podium::LoadRepositoryCsv(path));
  }
  return Unwrap(podium::LoadRepositoryJson(path));
}

podium::ProfileRepository GenerateProfiles(const std::string& preset,
                                           std::size_t users,
                                           std::uint64_t seed) {
  podium::datagen::DatasetConfig config;
  if (preset == "tripadvisor") {
    config = podium::datagen::DatasetConfig::TripAdvisorLike();
  } else if (preset == "yelp") {
    config = podium::datagen::DatasetConfig::YelpLike();
  } else {
    podium::obs::LogError("--generate must be tripadvisor or yelp")
        .Str("value", preset);
    std::exit(2);
  }
  if (users > 0) config.num_users = users;
  config.seed = seed;
  podium::datagen::Dataset dataset =
      Unwrap(podium::datagen::GenerateDataset(config));
  return std::move(dataset.repository);
}

podium::serve::HttpServer* g_server = nullptr;

void HandleSignal(int /*signum*/) {
  if (g_server != nullptr) g_server->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds before anything allocates. Left
  // alone, both start at 128 KiB and rise whenever a larger mmapped chunk
  // is freed, so serving speed would hang on whatever the startup load
  // and snapshot build happened to free. Each cache hit on an `explain`
  // request copies its ~306 KiB reply twice (ResultCache::Get,
  // SerializeResponse); held at 128 KiB, each copy is an mmap/munmap pair
  // with fresh page faults: perfbench `hit` read 0.62-0.82 ms serial p99
  // against 0.24-0.36 ms with this pin (seed 1, 4-core host). 32 MiB is
  // glibc's largest mmap threshold; buffers above it (a profiles file
  // being read) still come from mmap and go back to the system when
  // freed. The trim threshold keeps up to 64 MiB of freed heap top.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  // Serving binaries log requests; libraries default to warnings only.
  podium::obs::SetMinLogLevel(podium::obs::LogLevel::kInfo);
  podium::bench::Flags flags(argc, argv);
  std::string profiles = flags.String("profiles", "");
  const std::string generate = flags.String("generate", "");
  const std::string generate_out = flags.String("generate-out", "");
  const auto users = static_cast<std::size_t>(flags.Int("users", 0));
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 7));
  const std::string address = flags.String("address", "127.0.0.1");
  const int port = static_cast<int>(flags.Int("port", 8080));
  const std::int64_t threads = flags.Int("threads", 0);

  podium::serve::SnapshotOptions snapshot_options;
  snapshot_options.instance.grouping.bucket_method =
      flags.String("bucket", "quantile");
  snapshot_options.instance.grouping.max_buckets =
      static_cast<int>(flags.Int("buckets", 3));
  snapshot_options.instance.weight_kind = Unwrap(
      podium::ParseWeightKind(flags.String("weights", "LBS")));
  snapshot_options.instance.coverage_kind = Unwrap(
      podium::ParseCoverageKind(flags.String("coverage", "Single")));
  snapshot_options.instance.budget =
      static_cast<std::size_t>(flags.Int("budget", 8));
  snapshot_options.shard.num_shards =
      static_cast<std::size_t>(flags.Int("shards", 1));
  snapshot_options.shard.strategy = Unwrap(podium::shard::ParsePartitionStrategy(
      flags.String("shard-strategy", "hash")));
  if (snapshot_options.shard.num_shards == 0) {
    podium::obs::LogError("--shards must be >= 1");
    return 2;
  }

  podium::serve::ServiceOptions service_options;
  service_options.max_concurrency =
      static_cast<std::size_t>(flags.Int("max-concurrency", 4));
  service_options.max_queue_depth =
      static_cast<std::size_t>(flags.Int("max-queue", 64));
  service_options.default_deadline_ms = flags.Int("deadline-ms", 5000);
  service_options.cache_entries =
      static_cast<std::size_t>(flags.Int("cache-entries", 1024));

  podium::serve::HttpServerOptions http_options;
  http_options.bind_address = address;
  http_options.port = port;
  http_options.worker_threads =
      static_cast<std::size_t>(flags.Int("http-threads", 8));
  http_options.trace_log_every =
      static_cast<std::size_t>(flags.Int("trace-log-every", 100));
  flags.CheckConsumed();

  if (profiles.empty() == generate.empty()) {
    podium::obs::LogError(
        "exactly one of --profiles=FILE or --generate=tripadvisor|yelp "
        "is required");
    return 2;
  }
  if (threads < 0) {
    podium::obs::LogError("--threads must be >= 0");
    return 2;
  }
  podium::util::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(threads));

  podium::ProfileRepository repository =
      profiles.empty() ? GenerateProfiles(generate, users, seed)
                       : LoadProfiles(profiles);
  if (!generate_out.empty()) {
    if (generate.empty()) {
      podium::obs::LogError("--generate-out requires --generate");
      return 2;
    }
    const podium::Status saved =
        EndsWith(generate_out, ".csv")
            ? podium::SaveRepositoryCsv(repository, generate_out)
            : podium::SaveRepositoryJson(repository, generate_out);
    if (!saved.ok()) {
      podium::obs::LogError("cannot write --generate-out")
          .Str("path", generate_out)
          .Str("error", saved.ToString());
      return 2;
    }
    std::printf("podium_serve: wrote generated profiles to %s\n",
                generate_out.c_str());
    // Reload below re-reads this file, so /v1/reload works in
    // --generate mode too.
    profiles = generate_out;
  }
  std::printf("podium_serve: building snapshot over %zu users / %zu "
              "properties...\n",
              repository.user_count(), repository.property_count());
  std::shared_ptr<const podium::serve::Snapshot> snapshot =
      Unwrap(podium::serve::Snapshot::Build(std::move(repository),
                                            snapshot_options,
                                            /*generation=*/1));
  if (snapshot->is_sharded()) {
    std::printf(
        "podium_serve: snapshot generation 1, %zu groups, %zu shards "
        "(%s partition, %.1f MiB adjacency)\n",
        snapshot->group_count(), snapshot->sharded()->shard_count(),
        std::string(podium::shard::PartitionStrategyName(
                        snapshot_options.shard.strategy))
            .c_str(),
        static_cast<double>(snapshot->MemoryBytes()) / (1024.0 * 1024.0));
  } else {
    std::printf("podium_serve: snapshot generation 1, %zu groups\n",
                snapshot->group_count());
  }

  podium::serve::SelectionService service(std::move(snapshot),
                                          service_options);

  // Reload = re-read --profiles and swap in the next generation, so cache
  // keys from the old snapshot stop matching.
  std::function<podium::Status()> reload;
  if (!profiles.empty()) {
    reload = [&service, profiles]() {
      return service
          .Reload([&profiles] {
            return EndsWith(profiles, ".csv")
                       ? podium::LoadRepositoryCsv(profiles)
                       : podium::LoadRepositoryJson(profiles);
          })
          .status();
    };
  }

  podium::serve::HttpServer server(
      http_options, podium::serve::MakeServiceHandler(service,
                                                      std::move(reload)));
  const podium::Status started = server.Start();
  if (!started.ok()) {
    podium::obs::LogError("cannot start server")
        .Str("error", started.ToString());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("podium_serve: listening on http://%s:%d "
              "(concurrency %zu, queue %zu, cache %zu, deadline %lld ms)\n",
              address.c_str(), server.port(), service_options.max_concurrency,
              service_options.max_queue_depth, service_options.cache_entries,
              static_cast<long long>(service_options.default_deadline_ms));
  std::fflush(stdout);
  server.Wait();
  std::printf("podium_serve: shutting down\n");
  return 0;
}
