#ifndef PODIUM_GROUPS_WEIGHT_H_
#define PODIUM_GROUPS_WEIGHT_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "podium/groups/group_index.h"
#include "podium/util/result.h"

namespace podium {

/// The weight functions wei(G) of Def. 3.6.
enum class WeightKind : std::uint8_t {
  kIden,  // Identical Group Importance: wei(G) = 1
  kLbs,   // Linearly By Size:           wei(G) = |G|
  kEbs,   // Enforced By Size:           wei(G) = (B+1)^ord(G)
};

std::string_view WeightKindName(WeightKind kind);
Result<WeightKind> ParseWeightKind(std::string_view name);

/// Evaluated weights for every group of an index.
///
/// Iden and LBS produce plain scalars. EBS's (B+1)^ord(G) overflows any
/// floating-point type for realistic group counts, so EBS keeps the exact
/// rank ord(G) per group; the greedy selector finds the EBS argmax by
/// comparing alive ranks lexicographically (see core/greedy.h), which
/// realizes exactly the ordering the exponential weights induce. The
/// scalar() accessor still exposes the long-double power rounded to
/// double for reporting. It saturates to +inf within a few hundred ranks
/// for B >= 4 (rank 171 at B=64, 442 at B=4); evaluation stops calling
/// pow at the first +inf rank and fills the larger ranks with +inf, which
/// is bit-identical because every higher power is larger.
class GroupWeighting {
 public:
  /// `budget` is the B used by EBS's base (B+1); ignored by Iden/LBS.
  static GroupWeighting Compute(const GroupIndex& index, WeightKind kind,
                                std::size_t budget = 0);

  /// As above, but over explicit group sizes instead of an index. The
  /// sharded engine computes weights from GLOBAL group sizes and injects
  /// them into every shard-local instance, so all shards optimize the
  /// same global objective.
  static GroupWeighting ComputeFromSizes(std::span<const std::uint32_t> sizes,
                                         WeightKind kind,
                                         std::size_t budget = 0);

  WeightKind kind() const { return kind_; }
  std::size_t group_count() const { return scalar_.size(); }

  /// Scalar weight of group g (exact for Iden/LBS; approximate for EBS).
  double scalar(GroupId g) const { return scalar_[g]; }
  const std::vector<double>& scalars() const { return scalar_; }

  /// EBS rank ord(G): 0 for the smallest group, |𝒢|-1 for the largest
  /// (ties broken by group id, matching the paper's "arbitrary" tie-break
  /// deterministically). Only meaningful when kind() == kEbs.
  std::uint32_t rank(GroupId g) const { return rank_[g]; }

 private:
  WeightKind kind_ = WeightKind::kIden;
  std::vector<double> scalar_;
  std::vector<std::uint32_t> rank_;
};

}  // namespace podium

#endif  // PODIUM_GROUPS_WEIGHT_H_
