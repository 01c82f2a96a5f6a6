#include "podium/shard/sharded_snapshot.h"

#include <algorithm>
#include <utility>

#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Fills a shard's sub-repository with `users`: the SAME PropertyTable
/// (ids must line up with the scheme's), local ids the positions in the
/// ascending global list.
Status BuildSubRepository(const ProfileRepository& repository,
                          std::vector<UserId> users, ShardSnapshot* out) {
  out->global_ids = std::move(users);
  out->repository.properties() = repository.properties();
  for (const UserId global : out->global_ids) {
    const UserProfile& source = repository.user(global);
    Result<UserId> added = out->repository.AddUser(source.name());
    if (!added.ok()) return added.status();
    out->repository.mutable_user(added.value())
        .ReplaceEntries(source.entries());
  }
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

  Result<GroupScheme> scheme = [&] {
    obs::Span scheme_span("shard.scheme");
    return BuildGroupScheme(repository, instance.grouping);
  }();
  if (!scheme.ok()) return scheme.status();

  Result<PartitionPlan> plan = Partitioner::Partition(repository, options);
  if (!plan.ok()) return plan.status();

  auto snapshot = std::shared_ptr<ShardedSnapshot>(
      new ShardedSnapshot());  // podium-lint: allow(raw-new)
  snapshot->options_ = options;
  snapshot->instance_options_ = instance;
  snapshot->user_count_ = repository.user_count();
  snapshot->generation_ = generation;

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
          errors[s] = BuildSubRepository(repository, std::move(users.users[s]),
                                         snapshot->shards_[s].get());
        }
      },
      1);
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }

  // One index per shard over the global group-id space; a group's global
  // |G| is the sum of its shards' sizes, and every shard scores against
  // the global weights and coverage.
  std::vector<const ProfileRepository*> slices;
  for (const auto& shard : snapshot->shards_) {
    slices.push_back(&shard->repository);
  }
  Result<std::vector<GroupIndex>> indexes =
      GroupIndex::BuildSlices(scheme.value(), slices);
  if (!indexes.ok()) return indexes.status();
  std::vector<std::uint32_t> sizes(indexes->front().group_count(), 0);
  for (const GroupIndex& index : indexes.value()) {
    for (GroupId g = 0; g < sizes.size(); ++g) {
      sizes[g] += static_cast<std::uint32_t>(index.group_size(g));
    }
  }
  snapshot->weights_ = GroupWeighting::ComputeFromSizes(
      sizes, instance.weight_kind, instance.budget);
  snapshot->coverage_ =
      ComputeCoverage(sizes, instance.coverage_kind, instance.budget,
                      repository.user_count());
  for (std::size_t s = 0; s < k; ++s) {
    ShardSnapshot& shard = *snapshot->shards_[s];
    Result<DiversificationInstance> built =
        DiversificationInstance::FromGroupsWithScoring(
            shard.repository, std::move(indexes.value()[s]),
            snapshot->weights_, instance.coverage_kind, snapshot->coverage_,
            instance.budget);
    if (!built.ok()) return built.status();
    shard.instance = std::move(built).value();
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
