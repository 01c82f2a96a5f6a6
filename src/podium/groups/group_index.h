#ifndef PODIUM_GROUPS_GROUP_INDEX_H_
#define PODIUM_GROUPS_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "podium/bucketing/bucketizer.h"
#include "podium/groups/group.h"
#include "podium/profile/repository.h"
#include "podium/util/arena.h"
#include "podium/util/result.h"

namespace podium {

/// Options controlling how simple groups are derived from a repository.
struct GroupingOptions {
  /// Bucketizer method name ("equal-width", "quantile", "kmeans-1d",
  /// "jenks", "kde"); see bucketing::MakeBucketizer.
  std::string bucket_method = "quantile";

  /// Maximum buckets per score property (boolean properties always get the
  /// fixed false/true pair).
  int max_buckets = 3;

  /// Drop groups with fewer members than this (empty groups are always
  /// dropped — they can never be covered and would distort LBS/EBS ranks).
  std::size_t min_group_size = 1;

  /// Whether to materialize the "false" bucket of boolean properties as a
  /// group. The paper's examples treat boolean properties via their "true"
  /// side ("lives in Tokyo"); inferred falsehoods can still be grouped by
  /// enabling this.
  bool include_boolean_false_groups = false;

  /// When non-empty, only properties whose label contains at least one of
  /// these substrings produce groups. This is how the prototype's named
  /// configurations scope diversification ("only considers properties
  /// related to a restaurant in that name", Section 7) and how the
  /// opinion experiments restrict 𝒢 to cuisine- and location-related
  /// properties (Section 8.4).
  std::vector<std::string> property_filters;
};

/// Group label per Section 5: "<bucket label> <property label>" for score
/// properties; boolean "true" groups read as just the property label
/// ("lives in Tokyo"), "false" groups as "not <property label>".
/// BuildGroupScheme labels every candidate group with it, so an unsharded
/// index and every shard's slice carry the same labels.
std::string MakeGroupLabel(const PropertyTable& table, PropertyId property,
                           const bucketing::Bucket& bucket);

/// The candidate simple groups of a repository, before pruning: β(p) per
/// property and one candidate G_{p,b} per bucket (Def. 3.4), numbered in
/// (property, bucket) order. It holds no members, so its memory is
/// O(candidates). GroupIndex::BuildSlices assigns users to the candidates
/// and prunes the undersized ones.
struct GroupScheme {
  /// β(p), indexed by PropertyId; empty for properties that are unobserved
  /// or filtered out.
  std::vector<std::vector<bucketing::Bucket>> buckets_per_property;
  /// candidate_of[p][b] is the candidate id of property p's bucket b, or
  /// kInvalidGroup for a boolean "false" bucket left out of 𝒢.
  std::vector<std::vector<GroupId>> candidate_of;
  /// Candidate definitions, indexed by candidate id.
  std::vector<GroupDef> candidates;
  /// Candidates with fewer members than this over the whole population are
  /// pruned; at least 1, so empty groups never survive.
  std::size_t min_group_size = 1;
};

/// Collects every property's observed scores in ascending user order,
/// buckets them and numbers the candidate groups. This is the one
/// derivation of 𝒢's definitions: GroupIndex::Build and the sharded
/// engine both start from it.
Result<GroupScheme> BuildGroupScheme(const ProfileRepository& repository,
                                     const GroupingOptions& options = {});

/// The set of simple groups 𝒢 over a repository plus the bidirectional
/// user ↔ group adjacency that Algorithm 1's data-structure section calls
/// for ("links in both directions between the lists").
///
/// Both directions are stored in CSR (compressed sparse row) form: one
/// contiguous values array per direction plus a uint32 offsets array, so
/// the retirement inner loop walks cache-line-dense spans instead of
/// chasing per-group vector headers. All four CSR arrays live in ONE
/// 64-byte-aligned util::Arena block (offsets, values, both directions),
/// filled in a single pass by FinalizeAdjacency — a whole index is one
/// contiguous allocation, and the arena's guard bytes license the SIMD
/// flag gathers in core/kernels.h over member spans. Accessors hand out
/// spans; call sites that only iterate are unaffected.
///
/// Immutable after Build(); the greedy selector keeps its own mutable
/// per-run state. Copies share the arena block (it never mutates), so
/// copying an index — the serve path builds a per-request instance over
/// the snapshot's prebuilt index — costs the group definitions, not the
/// adjacency.
class GroupIndex {
 public:
  /// An empty index (no groups, no users); assign a Build()/FromDefs()
  /// result over it.
  GroupIndex() = default;

  /// Buckets every property of `repository` and materializes the simple
  /// groups: BuildGroupScheme, then BuildSlices over the one slice that is
  /// the whole repository. The repository must outlive the index (member
  /// lists refer to its user ids, not its storage).
  static Result<GroupIndex> Build(const ProfileRepository& repository,
                                  const GroupingOptions& options = {});

  /// Materializes `scheme`'s groups over a population cut into slices
  /// (sub-repositories under the scheme's PropertyTable, with dense local
  /// user ids). Each slice's profile entries are assigned to their
  /// candidates in ascending user order. A candidate is kept when its
  /// summed size over all slices reaches scheme.min_group_size, and a kept
  /// group stays in EVERY slice, empty there or not, so the returned
  /// indexes (one per slice) share one group-id space. The sharded engine
  /// passes its shard sub-repositories. buckets_per_property() is left
  /// empty.
  static Result<std::vector<GroupIndex>> BuildSlices(
      const GroupScheme& scheme,
      std::span<const ProfileRepository* const> slices);

  /// Builds an index from explicit group definitions (used for manually
  /// crafted groups, as surveyors define them).
  static Result<GroupIndex> FromDefs(const ProfileRepository& repository,
                                     std::vector<GroupDef> defs);

  /// Builds an index from explicit definitions plus precomputed member
  /// lists (members[d] are the users of defs[d], strictly ascending by
  /// user id). Unlike Build()/FromDefs(), EVERY definition is kept —
  /// including empty ones — so group ids are the positions of the
  /// caller's definitions: the sharded merge round builds its
  /// candidate-local index this way, one definition per global group id.
  /// buckets_per_property() is left empty.
  static Result<GroupIndex> FromMembership(
      std::vector<GroupDef> defs,
      const std::vector<std::vector<UserId>>& members, std::size_t num_users);

  std::size_t group_count() const { return defs_.size(); }
  std::size_t user_count() const {
    return user_offsets_.empty() ? 0 : user_offsets_.size() - 1;
  }

  const GroupDef& def(GroupId g) const { return defs_[g]; }
  const std::string& label(GroupId g) const { return defs_[g].label; }

  /// Members of group g, ascending by user id.
  std::span<const UserId> members(GroupId g) const {
    return member_values_.subspan(member_offsets_[g],
                                  member_offsets_[g + 1] - member_offsets_[g]);
  }
  std::size_t group_size(GroupId g) const {
    return member_offsets_[g + 1] - member_offsets_[g];
  }

  /// Groups containing user u, ascending by group id.
  std::span<const GroupId> groups_of(UserId u) const {
    return user_values_.subspan(user_offsets_[u],
                                user_offsets_[u + 1] - user_offsets_[u]);
  }

  /// Total number of user↔group links (the CSR values length).
  std::size_t link_count() const { return member_values_.size(); }

  /// The arena block holding all four CSR arrays (null for a
  /// default-constructed index). Exposed for the memory-layout tests and
  /// footprint accounting; shared, unchanged, by every copy of the index.
  const util::Arena* adjacency_arena() const { return arena_.get(); }

  /// max_{G} |G| and max_u |{G : u in G}| (the complexity-bound factors of
  /// Prop. 4.4).
  std::size_t MaxGroupSize() const;
  std::size_t MaxGroupsPerUser() const;

  /// True if user u belongs to group g (binary search over members).
  bool Contains(GroupId g, UserId u) const;

  /// Group ids sorted by decreasing size (ties by id, so deterministic).
  std::vector<GroupId> GroupsBySizeDescending() const;

  /// The buckets β(p) computed per property during Build (empty for
  /// properties absent from the repository). Indexed by PropertyId.
  const std::vector<std::vector<bucketing::Bucket>>& buckets_per_property()
      const {
    return buckets_per_property_;
  }

 private:
  /// Builds both CSR directions from per-group member lists (each
  /// ascending by user id) into one freshly allocated arena block;
  /// `keep[slot]` selects which lists survive. InvalidArgument when the
  /// link count overflows the uint32 offsets.
  [[nodiscard]] Status FinalizeAdjacency(
      const std::vector<std::vector<UserId>>& members,
      const std::vector<bool>& keep, std::size_t num_users);

  std::vector<GroupDef> defs_;
  // CSR adjacency, both directions, all four arrays inside arena_.
  // offsets have size count + 1; the values of row i live in
  // [offsets[i], offsets[i + 1]).
  std::shared_ptr<util::Arena> arena_;
  std::span<const std::uint32_t> member_offsets_;  // per group
  std::span<const UserId> member_values_;
  std::span<const std::uint32_t> user_offsets_;    // per user
  std::span<const GroupId> user_values_;
  std::vector<std::vector<bucketing::Bucket>> buckets_per_property_;
};

}  // namespace podium

#endif  // PODIUM_GROUPS_GROUP_INDEX_H_
