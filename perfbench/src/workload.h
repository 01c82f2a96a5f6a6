#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "podium/datagen/config.h"
#include "podium/serve/snapshot.h"
#include "podium/util/result.h"

namespace perfbench {

/// What a request exercises beyond the base greedy.
enum class RequestKind { kDefault, kOverride, kCustom, kExplain };

/// One workload: the generated profiles, the server flags beyond
/// --profiles/--port, and the server configuration those flags produce
/// (mirrored in-process for reference replies and layer replay).
struct WorkloadSpec {
  std::string name;
  podium::datagen::DatasetConfig dataset;
  std::vector<std::string> server_flags;
  /// podium_serve's --cache-entries (its default is 1024).
  std::size_t cache_entries = 1024;
  /// The snapshot podium_serve builds from these flags.
  podium::serve::SnapshotOptions snapshot;
};

/// hit | miss | shard, with profiles seeded by `seed`; NotFound otherwise.
podium::Result<WorkloadSpec> MakeWorkload(const std::string& name,
                                          std::uint64_t seed);

/// Generates the workload's profiles with podium::datagen and writes them
/// to `path` in the JSON exchange format LoadRepositoryJson reads
/// (compact, so writing and loading them costs less than the indented
/// SaveRepositoryJson output; scores keep every digit).
podium::Status WriteProfiles(const WorkloadSpec& spec, const std::string& path);

/// A workload's request stream: the distinct bodies it sends, and the
/// order it sends them in.
struct RequestMix {
  std::vector<std::string> bodies;  // distinct
  std::vector<RequestKind> kinds;   // per body
  /// Indices into `bodies`, cycled by the phases: seeded shuffles of the
  /// mix's pool, so every stretch of it holds the mix's proportions.
  std::vector<std::uint32_t> stream;
  /// Requests per epoch of the stream (the pool's size).
  std::size_t epoch = 1;
};

/// Builds the mix from `seed` and the snapshot the server will build
/// (customized requests name its group labels).
podium::Result<RequestMix> MakeRequestMix(
    const WorkloadSpec& spec, std::uint64_t seed,
    const podium::serve::Snapshot& snapshot);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
