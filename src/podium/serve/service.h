#ifndef PODIUM_SERVE_SERVICE_H_
#define PODIUM_SERVE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "podium/serve/request.h"
#include "podium/serve/result_cache.h"
#include "podium/serve/single_flight.h"
#include "podium/serve/snapshot.h"
#include "podium/util/mutex.h"
#include "podium/util/result.h"
#include "podium/util/thread_annotations.h"

namespace podium::serve {

struct ServiceOptions {
  /// Selections running at once. Each may fan out on the global
  /// ThreadPool, whose concurrent ParallelFor callers share one job slot
  /// and each run their own chunks (DESIGN.md §7), so they contend for
  /// the workers; the sweet spot is small. Excess requests queue.
  std::size_t max_concurrency = 4;

  /// Requests allowed to wait for a slot beyond the running ones; arrivals
  /// past this are rejected immediately (ResourceExhausted → HTTP 429).
  std::size_t max_queue_depth = 64;

  /// Default per-request deadline; a request whose slot has not freed up
  /// within the deadline fails with DeadlineExceeded (→ HTTP 504). 0
  /// disables deadlines. Requests may tighten (or, bounded by 10x this,
  /// loosen) it via "deadline_ms".
  std::int64_t default_deadline_ms = 5000;

  /// ResultCache entries; 0 disables caching.
  std::size_t cache_entries = 1024;

  /// Test-only: runs inside the admission slot before the selection,
  /// letting tests hold a slot open deterministically.
  std::function<void()> post_admission_hook;
};

/// A served reply: the deterministic response body plus per-request
/// metadata that must NOT enter the body (cached replies are byte
/// identical to uncached ones; timings travel as HTTP headers).
struct ServiceReply {
  std::string body;
  bool cache_hit = false;
  /// True when this request joined another identical in-flight request and
  /// shared its result instead of running its own selection.
  bool coalesced = false;
  /// The request's admission and run span durations; 0 on cache hits and
  /// for coalesced followers.
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  std::uint64_t snapshot_generation = 0;
};

/// The concurrent selection engine behind the HTTP front end: resolves a
/// SelectionRequest against the current Snapshot, consults the
/// ResultCache, admits the request through a bounded queue with a
/// deadline, runs the selection (greedy or customized) and serializes the
/// outcome. Thread-safe; one instance serves every connection.
class SelectionService {
 public:
  SelectionService(std::shared_ptr<const Snapshot> snapshot,
                   ServiceOptions options);

  /// Serves one request. Errors map to HTTP statuses in handlers.cc.
  [[nodiscard]] Result<ServiceReply> Select(const SelectionRequest& request);

  /// Atomically installs a new snapshot; in-flight requests finish on the
  /// snapshot they started with, later requests (and cache keys) use the
  /// new generation.
  void SwapSnapshot(std::shared_ptr<const Snapshot> snapshot)
      PODIUM_EXCLUDES(reload_mutex_);

  /// Rebuilds the snapshot over the profiles `load` returns, with the
  /// current snapshot's options, and swaps it in as generation current + 1,
  /// which it returns. Reloads are serialized: each holds reload_mutex_
  /// from the load through Snapshot::Build to the swap, so no two share a
  /// generation and the served generation never moves backwards. On error
  /// the current snapshot stays.
  [[nodiscard]] Result<std::uint64_t> Reload(
      const std::function<Result<ProfileRepository>()>& load)
      PODIUM_EXCLUDES(reload_mutex_);

  std::shared_ptr<const Snapshot> snapshot() const { return holder_.Current(); }
  const ServiceOptions& options() const { return options_; }
  ResultCache& cache() { return cache_; }
  /// Exposed so tests can install a join hook (SingleFlight::set_join_hook).
  SingleFlight& single_flight() { return single_flight_; }

 private:
  /// Runs the selection itself (no queueing, no cache) and serializes it.
  [[nodiscard]] Result<std::string> RunSelection(const Snapshot& snapshot,
                                   const SelectionRequest& request);

  /// The sharded branch of RunSelection: two-round distributed greedy via
  /// shard::ShardedSelector. `outcome` arrives with the generation /
  /// budget / kind fields resolved.
  [[nodiscard]] Result<std::string> RunShardedSelection(
      const Snapshot& snapshot, const SelectionRequest& request,
      SelectionOutcome& outcome);

  /// Blocks until a slot frees, the deadline passes, or the queue
  /// overflows. On success the caller owns one slot and must Release().
  [[nodiscard]] Status Admit(std::int64_t deadline_ms)
      PODIUM_EXCLUDES(mutex_);
  void Release() PODIUM_EXCLUDES(mutex_);

  /// Cross-request instance batching: requests against one snapshot
  /// generation whose parameters resolve to the same non-default instance
  /// share a single build instead of each paying MakeInstance. The budget
  /// is normalized out of the key when it cannot change the instance
  /// (Single coverage, non-EBS weights — mirroring MatchesDefaultInstance).
  [[nodiscard]] Result<std::shared_ptr<const DiversificationInstance>>
  PooledInstance(const Snapshot& snapshot, WeightKind weight_kind,
                 CoverageKind coverage_kind, std::size_t budget)
      PODIUM_EXCLUDES(instance_mutex_);

  ServiceOptions options_;
  SnapshotHolder holder_;
  ResultCache cache_;
  SingleFlight single_flight_;

  // Serializes reloads and swaps; readers load holder_ without it.
  util::Mutex reload_mutex_{"serve.service.reload"};

  util::Mutex mutex_{"serve.service.admission"};
  util::CondVar slot_free_;
  std::size_t running_ PODIUM_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_ PODIUM_GUARDED_BY(mutex_) = 0;

  struct PooledEntry {
    std::uint64_t generation = 0;
    WeightKind weight_kind{};
    CoverageKind coverage_kind{};
    std::size_t budget = 0;  // normalized (0 when irrelevant to the build)
    std::uint64_t last_used = 0;
    std::shared_ptr<const DiversificationInstance> instance;
  };
  util::Mutex instance_mutex_{"serve.service.instance_pool"};
  std::vector<PooledEntry> instance_pool_ PODIUM_GUARDED_BY(instance_mutex_);
  std::uint64_t instance_pool_clock_ PODIUM_GUARDED_BY(instance_mutex_) = 0;
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_SERVICE_H_
