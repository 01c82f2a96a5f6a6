#ifndef PODIUM_SHARD_SHARDED_SNAPSHOT_H_
#define PODIUM_SHARD_SHARDED_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "podium/core/instance.h"
#include "podium/profile/repository.h"
#include "podium/shard/partitioner.h"
#include "podium/util/result.h"

namespace podium::shard {

/// One shard: a sub-repository of the partition's users (dense local ids,
/// ascending in global id) plus a shard-local CSR GroupIndex over the
/// GLOBAL group-id space, wrapped in a DiversificationInstance whose
/// weights and coverage are the GLOBAL values — every shard optimizes the
/// same objective f, which is what the two-round bound and the K=1
/// byte-identity guarantee rest on (DESIGN.md §13).
struct ShardSnapshot {
  ProfileRepository repository;
  /// Local id → global id, strictly ascending.
  std::vector<UserId> global_ids;
  DiversificationInstance instance;

  std::size_t user_count() const { return global_ids.size(); }
  /// Bytes of the shard's CSR adjacency arena.
  std::size_t MemoryBytes() const;
};

/// A sharded, immutable view of a repository: K independently
/// arena-backed ShardSnapshots, each holding one slice of the global groups
/// (GroupIndex::BuildSlices), built on the global thread pool. Plugs into
/// serve::Snapshot behind the same atomic-generation swap as the
/// single-snapshot engine.
class ShardedSnapshot {
 public:
  /// Builds the group scheme, the partition and the K shards. EBS weights
  /// are rejected (their rank-lexicographic scoring does not decompose
  /// across a merge round); Iden/LBS are exact. The input repository is
  /// only read — the shards hold independent sub-repositories.
  static Result<std::shared_ptr<const ShardedSnapshot>> Build(
      const ProfileRepository& repository, const InstanceOptions& instance,
      const ShardOptions& options, std::uint64_t generation = 1);

  std::size_t shard_count() const { return shards_.size(); }
  const ShardSnapshot& shard(std::size_t s) const { return *shards_[s]; }
  const ShardOptions& options() const { return options_; }
  std::uint64_t generation() const { return generation_; }

  std::size_t user_count() const { return user_count_; }
  std::size_t group_count() const { return coverage_.size(); }
  WeightKind weight_kind() const { return instance_options_.weight_kind; }
  CoverageKind coverage_kind() const {
    return instance_options_.coverage_kind;
  }
  std::size_t default_budget() const { return instance_options_.budget; }

  /// Global coverage requirement per group (what the merge round decrements).
  const std::vector<std::uint32_t>& coverage() const { return coverage_; }
  /// Global scalar weight per group.
  const std::vector<double>& weights() const { return weights_.scalars(); }

  /// Sum of all shards' adjacency arena bytes.
  std::size_t MemoryBytes() const;

  /// (shard, local id) of a global user. Binary search over each shard's
  /// ascending global_ids — O(K log n), used only for per-selection name
  /// lookups, so no global O(users) reverse map is stored.
  struct Location {
    std::size_t shard = 0;
    UserId local = kInvalidUser;
  };
  Result<Location> Locate(UserId global) const;

  /// Display name of a global user.
  Result<std::string> UserName(UserId global) const;

 private:
  ShardedSnapshot() = default;

  ShardOptions options_;
  InstanceOptions instance_options_;
  GroupWeighting weights_;
  std::vector<std::uint32_t> coverage_;
  // unique_ptr so instance.repository() pointers stay stable forever.
  std::vector<std::unique_ptr<ShardSnapshot>> shards_;
  std::size_t user_count_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace podium::shard

#endif  // PODIUM_SHARD_SHARDED_SNAPSHOT_H_
