#include "podium/shard/sharded_snapshot.h"

#include <algorithm>
#include <utility>

#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Builds one shard in place: sub-repository, local CSR over the global
/// group-id space, and the local instance carrying the GLOBAL scoring.
Status BuildShard(const ProfileRepository& repository,
                  const GroupScheme& scheme, const GroupWeighting& weights,
                  const std::vector<std::uint32_t>& coverage,
                  CoverageKind coverage_kind, std::size_t budget,
                  std::vector<UserId> users, ShardSnapshot* out) {
  out->global_ids = std::move(users);
  const std::size_t n_local = out->global_ids.size();

  // Sub-repository under the SAME PropertyTable (ids must line up with
  // the scheme's); local ids are positions in the ascending global list.
  out->repository.properties() = repository.properties();
  for (UserId local = 0; local < n_local; ++local) {
    const UserProfile& source = repository.user(out->global_ids[local]);
    Result<UserId> added = out->repository.AddUser(source.name());
    if (!added.ok()) return added.status();
    out->repository.mutable_user(added.value())
        .ReplaceEntries(source.entries());
  }

  // Local member lists per GLOBAL group id — the same entry → bucket →
  // group assignment GroupIndex::Build performs, restricted to this
  // shard's users. Locally-empty groups stay (FromMembership keeps them),
  // preserving the shared id space.
  std::vector<std::vector<UserId>> members(scheme.group_count());
  for (UserId local = 0; local < n_local; ++local) {
    for (const PropertyScore& entry :
         out->repository.user(local).entries()) {
      const auto& buckets = scheme.buckets_per_property[entry.property];
      if (buckets.empty()) continue;
      const int b = bucketing::FindBucket(buckets, entry.score);
      if (b < 0) continue;
      const GroupId g =
          scheme.group_of_bucket[entry.property][static_cast<std::size_t>(b)];
      if (g == kInvalidGroup) continue;
      members[g].push_back(local);
    }
  }

  Result<GroupIndex> index =
      GroupIndex::FromMembership(scheme.defs, members, n_local);
  if (!index.ok()) return index.status();

  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroupsWithScoring(
          out->repository, std::move(index).value(), weights, coverage_kind,
          coverage, budget);
  if (!instance.ok()) return instance.status();
  out->instance = std::move(instance).value();
  return Status::Ok();
}

}  // namespace

std::size_t ShardSnapshot::MemoryBytes() const {
  const util::Arena* arena = instance.groups().adjacency_arena();
  return arena == nullptr ? 0 : arena->capacity();
}

Result<std::shared_ptr<const ShardedSnapshot>> ShardedSnapshot::Build(
    const ProfileRepository& repository, const InstanceOptions& instance,
    const ShardOptions& options, std::uint64_t generation) {
  obs::Span span("shard.snapshot.build");
  if (instance.budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (instance.weight_kind == WeightKind::kEbs) {
    return Status::Unimplemented(
        "EBS weights are not supported under sharding: their "
        "rank-lexicographic scoring does not decompose across the merge "
        "round (use Iden or LBS)");
  }

  Result<GroupScheme> scheme =
      BuildGroupScheme(repository, instance.grouping);
  if (!scheme.ok()) return scheme.status();

  Result<PartitionPlan> plan = Partitioner::Partition(repository, options);
  if (!plan.ok()) return plan.status();

  auto snapshot = std::shared_ptr<ShardedSnapshot>(
      new ShardedSnapshot());  // podium-lint: allow(raw-new)
  snapshot->scheme_ = std::move(scheme).value();
  snapshot->options_ = options;
  snapshot->instance_options_ = instance;
  snapshot->user_count_ = repository.user_count();
  snapshot->generation_ = generation;
  snapshot->weights_ = GroupWeighting::ComputeFromSizes(
      snapshot->scheme_.global_sizes, instance.weight_kind, instance.budget);
  snapshot->coverage_ =
      ComputeCoverage(snapshot->scheme_.global_sizes, instance.coverage_kind,
                      instance.budget, repository.user_count());

  const std::size_t k = options.num_shards;
  snapshot->shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    snapshot->shards_.push_back(std::make_unique<ShardSnapshot>());
  }
  PartitionPlan& users = plan.value();
  std::vector<Status> errors(k);
  util::ParallelFor(
      k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          errors[s] = BuildShard(
              repository, snapshot->scheme_, snapshot->weights_,
              snapshot->coverage_, instance.coverage_kind, instance.budget,
              std::move(users.users[s]), snapshot->shards_[s].get());
        }
      },
      1);
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("shard.snapshot.builds").Add();
  registry.counter("shard.snapshot.shards").Add(static_cast<std::uint64_t>(k));
  registry.gauge("shard.snapshot.memory_bytes")
      .Set(static_cast<double>(snapshot->MemoryBytes()));
  return std::shared_ptr<const ShardedSnapshot>(std::move(snapshot));
}

std::size_t ShardedSnapshot::MemoryBytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->MemoryBytes();
  return total;
}

Result<ShardedSnapshot::Location> ShardedSnapshot::Locate(
    UserId global) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<UserId>& ids = shards_[s]->global_ids;
    const auto it = std::lower_bound(ids.begin(), ids.end(), global);
    if (it != ids.end() && *it == global) {
      return Location{s, static_cast<UserId>(it - ids.begin())};
    }
  }
  return Status::NotFound("user id not present in any shard");
}

Result<std::string> ShardedSnapshot::UserName(UserId global) const {
  Result<Location> location = Locate(global);
  if (!location.ok()) return location.status();
  return shards_[location.value().shard]
      ->repository.user(location.value().local)
      .name();
}

}  // namespace podium::shard
