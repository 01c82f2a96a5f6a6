#include "podium/serve/snapshot.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <string_view>
#include <utility>

#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"

namespace podium::serve {

Result<std::shared_ptr<const Snapshot>> Snapshot::Build(
    ProfileRepository repository, const SnapshotOptions& options,
    std::uint64_t generation) {
  obs::Span span("serve.snapshot_build");
  // make_shared needs a public constructor; the factory keeps construction
  // in two steps so the instance points at the repository's final address.
  std::shared_ptr<Snapshot> snapshot(
      new Snapshot());  // podium-lint: allow(raw-new)
  snapshot->options_ = options;
  snapshot->generation_ = generation;
  snapshot->created_at_ = std::chrono::steady_clock::now();

  if (options.shard.num_shards > 1) {
    // Sharded mode: the partitioned engine owns per-shard
    // sub-repositories and adjacency; the global repository_ and
    // default_instance_ stay empty (the input repository is dropped once
    // the shards are built).
    Result<std::shared_ptr<const shard::ShardedSnapshot>> sharded =
        shard::ShardedSnapshot::Build(repository, options.instance,
                                      options.shard, generation);
    if (!sharded.ok()) return sharded.status();
    snapshot->sharded_ = std::move(sharded).value();
    auto& registry = obs::MetricsRegistry::Global();
    registry.gauge("serve.snapshot.generation")
        .Set(static_cast<double>(generation));
    registry.gauge("serve.snapshot.users")
        .Set(static_cast<double>(snapshot->user_count()));
    registry.gauge("serve.snapshot.groups")
        .Set(static_cast<double>(snapshot->group_count()));
    registry.gauge("serve.snapshot.shards")
        .Set(static_cast<double>(snapshot->sharded_->shard_count()));
    registry.gauge("serve.snapshot.memory_bytes")
        .Set(static_cast<double>(snapshot->MemoryBytes()));
    return std::shared_ptr<const Snapshot>(std::move(snapshot));
  }

  snapshot->repository_ = std::move(repository);
  Result<DiversificationInstance> instance = DiversificationInstance::Build(
      snapshot->repository_, options.instance);
  if (!instance.ok()) return instance.status();
  snapshot->default_instance_ = std::move(instance).value();

  const GroupIndex& groups = snapshot->default_instance_.groups();
  // Size the table at a load factor of at most 1/2, minimum 8 slots, so
  // linear probe chains stay short. Slots hold g + 1; 0 means empty.
  const std::size_t slots = std::bit_ceil(
      std::max<std::size_t>(8, groups.group_count() * 2));
  snapshot->label_arena_ = util::Arena(util::Arena::BytesFor<GroupId>(slots));
  snapshot->label_slots_ = snapshot->label_arena_.AllocateSpan<GroupId>(slots);
  snapshot->label_mask_ = slots - 1;
  for (GroupId g = 0; g < groups.group_count(); ++g) {
    const std::size_t slot = snapshot->LabelSlot(groups.label(g));
    if (snapshot->label_slots_[slot] == 0) {
      snapshot->label_slots_[slot] = g + 1;
    }
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.gauge("serve.snapshot.generation")
      .Set(static_cast<double>(generation));
  registry.gauge("serve.snapshot.users")
      .Set(static_cast<double>(snapshot->repository_.user_count()));
  registry.gauge("serve.snapshot.groups")
      .Set(static_cast<double>(groups.group_count()));
  registry.gauge("serve.snapshot.shards").Set(1.0);
  registry.gauge("serve.snapshot.memory_bytes")
      .Set(static_cast<double>(snapshot->MemoryBytes()));
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

std::size_t Snapshot::MemoryBytes() const {
  if (sharded_ != nullptr) return sharded_->MemoryBytes();
  std::size_t total = label_arena_.capacity();
  const util::Arena* adjacency =
      default_instance_.groups().adjacency_arena();
  if (adjacency != nullptr) total += adjacency->capacity();
  return total;
}

bool Snapshot::MatchesDefaultInstance(WeightKind weight_kind,
                                      CoverageKind coverage_kind,
                                      std::size_t budget) const {
  if (weight_kind != options_.instance.weight_kind) return false;
  if (coverage_kind != options_.instance.coverage_kind) return false;
  if (budget == options_.instance.budget) return true;
  return coverage_kind == CoverageKind::kSingle &&
         weight_kind != WeightKind::kEbs;
}

Result<DiversificationInstance> Snapshot::MakeInstance(
    WeightKind weight_kind, CoverageKind coverage_kind,
    std::size_t budget) const {
  obs::Span span("serve.make_instance");
  return DiversificationInstance::FromGroups(
      repository_, default_instance_.groups(), weight_kind, coverage_kind,
      budget);
}

std::size_t Snapshot::LabelSlot(std::string_view label) const {
  const GroupIndex& groups = default_instance_.groups();
  std::size_t slot = std::hash<std::string_view>{}(label) & label_mask_;
  while (true) {
    const GroupId occupant = label_slots_[slot];
    if (occupant == 0 || groups.label(occupant - 1) == label) return slot;
    slot = (slot + 1) & label_mask_;
  }
}

Result<GroupId> Snapshot::ResolveLabel(const std::string& label) const {
  const GroupId occupant = label_slots_[LabelSlot(label)];
  if (occupant == 0) {
    return Status::NotFound("no group labeled '" + label + "'");
  }
  return occupant - 1;
}

}  // namespace podium::serve
