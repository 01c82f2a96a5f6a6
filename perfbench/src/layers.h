#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "http_phase.h"
#include "podium/serve/snapshot.h"
#include "podium/util/result.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using SnapshotPtr = std::shared_ptr<const podium::serve::Snapshot>;

/// Loads `profiles` and builds the snapshot podium_serve builds from it,
/// at generation 1 like the server's first snapshot. With `setup_layers`
/// set (the traced run), each setup layer's public call is also timed on
/// the same repository and reported there, with its spans in `spans`.
podium::Result<SnapshotPtr> LoadSnapshot(const WorkloadSpec& spec,
                                         const std::string& profiles,
                                         std::vector<Metric>* setup_layers,
                                         std::vector<Span>* spans);

/// The reference reply per body: SelectionService over `snapshot` with
/// the cache off and the global pool at width 1. A request the reference
/// rejects is an error: workloads send only requests that succeed.
podium::Result<std::vector<std::string>> ReferenceReplies(
    const SnapshotPtr& snapshot, const std::vector<std::string>& bodies);

/// FNV-1a over every (body, reference reply) pair, in order.
std::uint64_t ReplyDigest(const std::vector<std::string>& bodies,
                          const std::vector<std::string>& replies);

struct ReplayResult {
  std::vector<Metric> metrics;
  /// Mean per call of SelectionService::Select minus the layer calls that
  /// make it up: the in-process layer-sum residual.
  double unattributed_ms = 0.0;
  double service_ms = 0.0;  // mean per call, for the tolerance
  /// Replayed replies that differ from their reference (must be 0: the
  /// replay then does exactly the service's work).
  std::size_t mismatches = 0;
  std::vector<Span> spans;
};

/// Replays the distinct requests in-process against `snapshot`, timing
/// each layer's public call: JSON parse and reply write, cache key and
/// lookup, instance build, greedy / customization / explanation or the
/// sharded selection, and SelectionService::Select as a whole.
podium::Result<ReplayResult> ReplayLayers(
    const WorkloadSpec& spec, const SnapshotPtr& snapshot,
    const RequestMix& mix, const std::vector<std::string>& references);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
