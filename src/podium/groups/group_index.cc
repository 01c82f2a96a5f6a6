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

/// Slice users per candidate of `scheme`: every profile entry, in
/// ascending user order, lands in its bucket's candidate, so each list is
/// ascending.
std::vector<std::vector<UserId>> AssignMembers(
    const GroupScheme& scheme, const ProfileRepository& slice) {
  std::vector<std::vector<UserId>> members(scheme.candidates.size());
  for (UserId u = 0; u < slice.user_count(); ++u) {
    for (const PropertyScore& entry : slice.user(u).entries()) {
      const auto& buckets = scheme.buckets_per_property[entry.property];
      if (buckets.empty()) continue;
      const int b = bucketing::FindBucket(buckets, entry.score);
      if (b < 0) continue;  // unreachable for valid partitions
      const GroupId candidate =
          scheme.candidate_of[entry.property][static_cast<std::size_t>(b)];
      if (candidate != kInvalidGroup) members[candidate].push_back(u);
    }
  }
  return members;
}

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

Result<GroupScheme> BuildGroupScheme(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  Result<std::unique_ptr<bucketing::Bucketizer>> bucketizer =
      bucketing::MakeBucketizer(options.bucket_method);
  if (!bucketizer.ok()) return bucketizer.status();
  if (options.max_buckets < 1) {
    return Status::InvalidArgument("max_buckets must be >= 1");
  }

  const PropertyTable& table = repository.properties();
  const std::size_t num_properties = table.size();

  // Observed scores per property, in ascending user order.
  std::vector<std::vector<double>> scores(num_properties);
  for (UserId u = 0; u < repository.user_count(); ++u) {
    for (const PropertyScore& entry : repository.user(u).entries()) {
      scores[entry.property].push_back(entry.score);
    }
  }

  auto passes_filter = [&options, &table](PropertyId p) {
    if (options.property_filters.empty()) return true;
    const std::string& label = table.Label(p);
    for (const std::string& filter : options.property_filters) {
      if (label.find(filter) != std::string::npos) return true;
    }
    return false;
  };

  // Bucket the properties in parallel. Bucketizers are stateless (k-means
  // seeding is fixed), so a per-chunk instance splits as a shared one
  // would; errors land in per-property slots and the first one in
  // property order is returned, matching a serial early exit.
  GroupScheme scheme;
  scheme.buckets_per_property.resize(num_properties);
  std::vector<Status> bucket_errors(num_properties);
  util::ParallelFor(
      num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        const auto local_bucketizer =
            bucketing::MakeBucketizer(options.bucket_method);
        for (PropertyId p = begin; p < end; ++p) {
          if (scores[p].empty() || !passes_filter(p)) continue;
          if (table.Kind(p) == PropertyKind::kBoolean) {
            scheme.buckets_per_property[p] = bucketing::FixedBooleanBuckets();
            continue;
          }
          Result<std::vector<bucketing::Bucket>> split =
              local_bucketizer.value()->Split(scores[p], options.max_buckets);
          if (!split.ok()) {
            bucket_errors[p] = split.status();
            continue;
          }
          scheme.buckets_per_property[p] = std::move(split).value();
        }
      },
      4);
  for (PropertyId p = 0; p < num_properties; ++p) {
    if (!bucket_errors[p].ok()) return bucket_errors[p];
  }

  // Number the candidates in (property, bucket) order.
  scheme.candidate_of.resize(num_properties);
  for (PropertyId p = 0; p < num_properties; ++p) {
    const auto& buckets = scheme.buckets_per_property[p];
    scheme.candidate_of[p].assign(buckets.size(), kInvalidGroup);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (!options.include_boolean_false_groups &&
          table.Kind(p) == PropertyKind::kBoolean &&
          buckets[b].label == "false") {
        continue;
      }
      scheme.candidate_of[p][b] =
          static_cast<GroupId>(scheme.candidates.size());
      scheme.candidates.push_back(
          GroupDef{p, buckets[b], MakeGroupLabel(table, p, buckets[b])});
    }
  }
  scheme.min_group_size = std::max<std::size_t>(options.min_group_size, 1);
  return scheme;
}

Result<GroupIndex> GroupIndex::Build(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  obs::Span span("group_index.build");
  Result<GroupScheme> scheme = BuildGroupScheme(repository, options);
  if (!scheme.ok()) return scheme.status();
  const ProfileRepository* const whole = &repository;
  Result<std::vector<GroupIndex>> slices =
      BuildSlices(scheme.value(), std::span(&whole, 1));
  if (!slices.ok()) return slices.status();
  GroupIndex index = std::move(slices.value().front());
  index.buckets_per_property_ = std::move(scheme.value().buckets_per_property);

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("group_index.builds").Add();
  registry.counter("group_index.groups")
      .Add(static_cast<std::uint64_t>(index.defs_.size()));
  registry.counter("group_index.pruned_groups")
      .Add(static_cast<std::uint64_t>(scheme.value().candidates.size() -
                                      index.defs_.size()));
  registry.counter("group_index.links")
      .Add(static_cast<std::uint64_t>(index.link_count()));
  return index;
}

Result<std::vector<GroupIndex>> GroupIndex::BuildSlices(
    const GroupScheme& scheme,
    std::span<const ProfileRepository* const> slices) {
  const std::size_t k = slices.size();
  std::vector<std::vector<std::vector<UserId>>> members(k);
  util::ParallelFor(
      k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          members[s] = AssignMembers(scheme, *slices[s]);
        }
      },
      1);

  // Prune once, on the candidates' sizes summed over the slices.
  std::vector<bool> keep(scheme.candidates.size(), false);
  std::vector<GroupDef> defs;
  for (std::size_t c = 0; c < keep.size(); ++c) {
    std::size_t size = 0;
    for (const auto& slice_members : members) size += slice_members[c].size();
    if (size < scheme.min_group_size) continue;
    keep[c] = true;
    defs.push_back(scheme.candidates[c]);
  }

  // Every slice gets the kept definitions; the last one takes them.
  std::vector<GroupIndex> indexes(k);
  for (std::size_t s = 0; s + 1 < k; ++s) indexes[s].defs_ = defs;
  if (k > 0) indexes[k - 1].defs_ = std::move(defs);
  std::vector<Status> errors(k);
  util::ParallelFor(
      k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          errors[s] = indexes[s].FinalizeAdjacency(members[s], keep,
                                                   slices[s]->user_count());
          members[s] = {};
        }
      },
      1);
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }
  return indexes;
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
