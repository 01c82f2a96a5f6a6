#include "podium/groups/group_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// Grain for loops chunked over users: profile entry lists are short, so
/// a chunk needs a few hundred users to amortize dispatch.
constexpr std::size_t kUserGrain = 256;

}  // namespace

std::string MakeGroupLabel(const PropertyTable& table, PropertyId property,
                           const bucketing::Bucket& bucket) {
  const std::string& property_label = table.Label(property);
  if (table.Kind(property) == PropertyKind::kBoolean) {
    return bucket.label == "false" ? "not " + property_label : property_label;
  }
  return bucket.label + " " + property_label;
}

Status GroupIndex::FinalizeAdjacency(
    const std::vector<std::vector<UserId>>& members,
    const std::vector<bool>& keep, std::size_t num_users) {
  std::size_t kept = 0;
  std::size_t links = 0;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    if (!keep[slot]) continue;
    ++kept;
    links += members[slot].size();
  }
  if (links > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "adjacency exceeds 2^32 links; uint32 CSR offsets overflow");
  }

  // One contiguous 64-byte-aligned block for all four CSR arrays, sized
  // exactly; the arena's guard bytes license the kernels' flag gathers.
  arena_ = std::make_shared<util::Arena>(
      util::Arena::BytesFor<std::uint32_t>(kept + 1) +
      util::Arena::BytesFor<UserId>(links) +
      util::Arena::BytesFor<std::uint32_t>(num_users + 1) +
      util::Arena::BytesFor<GroupId>(links));
  const std::span<std::uint32_t> member_offsets =
      arena_->AllocateSpan<std::uint32_t>(kept + 1);
  const std::span<UserId> member_values = arena_->AllocateSpan<UserId>(links);
  const std::span<std::uint32_t> user_offsets =
      arena_->AllocateSpan<std::uint32_t>(num_users + 1);
  const std::span<GroupId> user_values = arena_->AllocateSpan<GroupId>(links);

  // Single pass over the kept lists: flatten the member direction and
  // count user degrees (into user_offsets, shifted by one) as each link
  // streams through.
  std::uint32_t cursor = 0;
  std::size_t row = 0;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    if (!keep[slot]) continue;
    for (UserId u : members[slot]) {
      member_values[cursor++] = u;
      ++user_offsets[u + 1];
    }
    member_offsets[++row] = cursor;
  }

  // Reverse direction: prefix-sum the degrees, then fill. Kept groups are
  // visited in ascending id order, so each user's group list comes out
  // ascending.
  for (std::size_t u = 1; u <= num_users; ++u) {
    user_offsets[u] += user_offsets[u - 1];
  }
  std::vector<std::uint32_t> fill_cursor(user_offsets.begin(),
                                         user_offsets.end() - 1);
  for (std::size_t g = 0; g < kept; ++g) {
    for (std::uint32_t i = member_offsets[g]; i < member_offsets[g + 1];
         ++i) {
      user_values[fill_cursor[member_values[i]]++] =
          static_cast<GroupId>(g);
    }
  }

  member_offsets_ = member_offsets;
  member_values_ = member_values;
  user_offsets_ = user_offsets;
  user_values_ = user_values;
  return Status::Ok();
}

Result<GroupIndex> GroupIndex::Build(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  obs::Span span("group_index.build");
  Result<std::unique_ptr<bucketing::Bucketizer>> bucketizer =
      bucketing::MakeBucketizer(options.bucket_method);
  if (!bucketizer.ok()) return bucketizer.status();
  if (options.max_buckets < 1) {
    return Status::InvalidArgument("max_buckets must be >= 1");
  }

  const PropertyTable& table = repository.properties();
  const std::size_t num_properties = table.size();
  const std::size_t num_users = repository.user_count();

  // Collect observed scores per property: chunked over users into
  // per-chunk slices, then concatenated per property in chunk order —
  // identical to the old single pass in ascending user order.
  const util::ChunkPlan user_plan = util::PlanChunks(num_users, kUserGrain);
  std::vector<std::vector<std::vector<double>>> chunk_scores(
      user_plan.num_chunks);
  util::ParallelFor(
      num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_scores[chunk];
        local.resize(num_properties);
        for (UserId u = begin; u < end; ++u) {
          for (const PropertyScore& entry : repository.user(u).entries()) {
            local[entry.property].push_back(entry.score);
          }
        }
      },
      kUserGrain);
  std::vector<std::vector<double>> scores(num_properties);
  util::ParallelFor(
      num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (PropertyId p = begin; p < end; ++p) {
          std::size_t total = 0;
          for (const auto& local : chunk_scores) total += local[p].size();
          scores[p].reserve(total);
          for (const auto& local : chunk_scores) {
            scores[p].insert(scores[p].end(), local[p].begin(),
                             local[p].end());
          }
        }
      },
      16);
  chunk_scores.clear();
  chunk_scores.shrink_to_fit();

  GroupIndex index;
  index.buckets_per_property_.resize(num_properties);

  auto passes_filter = [&options, &table](PropertyId p) {
    if (options.property_filters.empty()) return true;
    const std::string& label = table.Label(p);
    for (const std::string& filter : options.property_filters) {
      if (label.find(filter) != std::string::npos) return true;
    }
    return false;
  };

  // Bucket the properties in parallel. Bucketizers are stateless (k-means
  // seeding is fixed), so a per-chunk instance splits identically to the
  // old shared one; errors land in per-property slots and the first one in
  // property order is returned, matching the serial early-exit.
  std::vector<Status> bucket_errors(num_properties);
  util::ParallelFor(
      num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        const auto local_bucketizer =
            bucketing::MakeBucketizer(options.bucket_method);
        for (PropertyId p = begin; p < end; ++p) {
          if (scores[p].empty() || !passes_filter(p)) continue;
          if (table.Kind(p) == PropertyKind::kBoolean) {
            index.buckets_per_property_[p] = bucketing::FixedBooleanBuckets();
            continue;
          }
          Result<std::vector<bucketing::Bucket>> split =
              local_bucketizer.value()->Split(scores[p], options.max_buckets);
          if (!split.ok()) {
            bucket_errors[p] = split.status();
            continue;
          }
          index.buckets_per_property_[p] = std::move(split).value();
        }
      },
      4);
  for (PropertyId p = 0; p < num_properties; ++p) {
    if (!bucket_errors[p].ok()) return bucket_errors[p];
  }

  // Provisional group ids are assigned serially in (property, bucket)
  // order; `slot_of[p][b]` is the id of property p's bucket-b group, or
  // kInvalidGroup when the bucket was skipped.
  std::vector<std::vector<GroupId>> slot_of(num_properties);
  std::vector<GroupDef> provisional_defs;
  for (PropertyId p = 0; p < num_properties; ++p) {
    const auto& buckets = index.buckets_per_property_[p];
    if (buckets.empty()) continue;
    slot_of[p].assign(buckets.size(), kInvalidGroup);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (!options.include_boolean_false_groups &&
          table.Kind(p) == PropertyKind::kBoolean &&
          buckets[b].label == "false") {
        continue;
      }
      slot_of[p][b] = static_cast<GroupId>(provisional_defs.size());
      provisional_defs.push_back(
          GroupDef{p, buckets[b], MakeGroupLabel(table, p, buckets[b])});
    }
  }

  // Assign every (user, property, score) entry to its bucket's group:
  // chunked over users into per-chunk per-slot lists, then merged per slot
  // in chunk order — ascending user id, as the old single pass produced.
  const std::size_t num_slots = provisional_defs.size();
  std::vector<std::vector<std::vector<UserId>>> chunk_members(
      user_plan.num_chunks);
  util::ParallelFor(
      num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_members[chunk];
        local.resize(num_slots);
        for (UserId u = begin; u < end; ++u) {
          for (const PropertyScore& entry : repository.user(u).entries()) {
            const auto& buckets = index.buckets_per_property_[entry.property];
            if (buckets.empty()) continue;
            const int b = bucketing::FindBucket(buckets, entry.score);
            if (b < 0) continue;  // unreachable for valid partitions
            const GroupId slot =
                slot_of[entry.property][static_cast<std::size_t>(b)];
            if (slot == kInvalidGroup) continue;
            local[slot].push_back(u);
          }
        }
      },
      kUserGrain);
  std::vector<std::vector<UserId>> provisional_members(num_slots);
  util::ParallelFor(
      num_slots,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          std::size_t total = 0;
          for (const auto& local : chunk_members) total += local[slot].size();
          provisional_members[slot].reserve(total);
          for (const auto& local : chunk_members) {
            provisional_members[slot].insert(provisional_members[slot].end(),
                                             local[slot].begin(),
                                             local[slot].end());
          }
        }
      },
      16);
  chunk_members.clear();
  chunk_members.shrink_to_fit();

  // Compact away empty / undersized groups and flatten both directions.
  const std::size_t min_size = std::max<std::size_t>(options.min_group_size, 1);
  std::vector<bool> keep(num_slots, false);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (provisional_members[slot].size() < min_size) continue;
    keep[slot] = true;
    index.defs_.push_back(std::move(provisional_defs[slot]));
  }
  if (Status s = index.FinalizeAdjacency(provisional_members, keep, num_users);
      !s.ok()) {
    return s;
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("group_index.builds").Add();
  registry.counter("group_index.groups")
      .Add(static_cast<std::uint64_t>(index.defs_.size()));
  registry.counter("group_index.pruned_groups")
      .Add(static_cast<std::uint64_t>(num_slots - index.defs_.size()));
  registry.counter("group_index.links")
      .Add(static_cast<std::uint64_t>(index.link_count()));
  return index;
}

Result<GroupIndex> GroupIndex::FromDefs(const ProfileRepository& repository,
                                        std::vector<GroupDef> defs) {
  for (const GroupDef& def : defs) {
    if (def.property >= repository.property_count()) {
      return Status::OutOfRange("group definition references unknown property");
    }
  }

  // Each definition scans the repository independently.
  std::vector<std::vector<UserId>> members(defs.size());
  util::ParallelFor(
      defs.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t d = begin; d < end; ++d) {
          for (UserId u = 0; u < repository.user_count(); ++u) {
            const auto score = repository.user(u).Get(defs[d].property);
            if (score.has_value() && defs[d].bucket.Contains(*score)) {
              members[d].push_back(u);
            }
          }
        }
      },
      1);

  GroupIndex index;
  index.buckets_per_property_.resize(repository.property_count());
  std::vector<bool> keep(defs.size(), false);
  for (std::size_t d = 0; d < defs.size(); ++d) {
    if (members[d].empty()) continue;  // empty groups can never be covered
    keep[d] = true;
    index.defs_.push_back(std::move(defs[d]));
  }
  if (Status s = index.FinalizeAdjacency(members, keep, repository.user_count());
      !s.ok()) {
    return s;
  }
  return index;
}

Result<GroupIndex> GroupIndex::FromMembership(
    std::vector<GroupDef> defs,
    const std::vector<std::vector<UserId>>& members, std::size_t num_users) {
  if (members.size() != defs.size()) {
    return Status::InvalidArgument(
        "FromMembership: defs and member lists disagree in size");
  }
  for (const std::vector<UserId>& list : members) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] >= num_users || (i > 0 && list[i] <= list[i - 1])) {
        return Status::InvalidArgument(
            "FromMembership: member lists must be strictly ascending, "
            "in-range user ids");
      }
    }
  }
  GroupIndex index;
  index.defs_ = std::move(defs);
  const std::vector<bool> keep(members.size(), true);
  if (Status s = index.FinalizeAdjacency(members, keep, num_users); !s.ok()) {
    return s;
  }
  return index;
}

std::size_t GroupIndex::MaxGroupSize() const {
  std::size_t best = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    best = std::max(best, group_size(g));
  }
  return best;
}

std::size_t GroupIndex::MaxGroupsPerUser() const {
  std::size_t best = 0;
  for (UserId u = 0; u < user_count(); ++u) {
    best = std::max(best, groups_of(u).size());
  }
  return best;
}

bool GroupIndex::Contains(GroupId g, UserId u) const {
  const std::span<const UserId> m = members(g);
  return std::binary_search(m.begin(), m.end(), u);
}

std::vector<GroupId> GroupIndex::GroupsBySizeDescending() const {
  std::vector<GroupId> order(group_count());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [this](GroupId a, GroupId b) {
    if (group_size(a) != group_size(b)) return group_size(a) > group_size(b);
    return a < b;
  });
  return order;
}

}  // namespace podium
