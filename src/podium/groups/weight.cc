#include "podium/groups/weight.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace podium {

std::string_view WeightKindName(WeightKind kind) {
  switch (kind) {
    case WeightKind::kIden:
      return "Iden";
    case WeightKind::kLbs:
      return "LBS";
    case WeightKind::kEbs:
      return "EBS";
  }
  return "unknown";
}

Result<WeightKind> ParseWeightKind(std::string_view name) {
  if (name == "Iden" || name == "iden") return WeightKind::kIden;
  if (name == "LBS" || name == "lbs") return WeightKind::kLbs;
  if (name == "EBS" || name == "ebs") return WeightKind::kEbs;
  return Status::InvalidArgument("unknown weight kind: " + std::string(name));
}

GroupWeighting GroupWeighting::Compute(const GroupIndex& index,
                                       WeightKind kind, std::size_t budget) {
  std::vector<std::uint32_t> sizes(index.group_count());
  for (GroupId g = 0; g < sizes.size(); ++g) {
    sizes[g] = static_cast<std::uint32_t>(index.group_size(g));
  }
  return ComputeFromSizes(sizes, kind, budget);
}

GroupWeighting GroupWeighting::ComputeFromSizes(
    std::span<const std::uint32_t> sizes, WeightKind kind,
    std::size_t budget) {
  GroupWeighting weighting;
  weighting.kind_ = kind;
  const std::size_t n = sizes.size();
  weighting.scalar_.resize(n);
  switch (kind) {
    case WeightKind::kIden:
      std::fill(weighting.scalar_.begin(), weighting.scalar_.end(), 1.0);
      break;
    case WeightKind::kLbs:
      for (GroupId g = 0; g < n; ++g) {
        weighting.scalar_[g] = static_cast<double>(sizes[g]);
      }
      break;
    case WeightKind::kEbs: {
      // ord(·): groups sorted from smallest to largest, ties by id.
      std::vector<GroupId> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [sizes](GroupId a, GroupId b) {
                         if (sizes[a] != sizes[b]) return sizes[a] < sizes[b];
                         return a < b;
                       });
      weighting.rank_.resize(n);
      for (std::uint32_t r = 0; r < n; ++r) weighting.rank_[order[r]] = r;
      // Approximate scalars for reporting, in ascending rank. They saturate
      // to +inf quickly, and every higher power of a base >= 2 is larger,
      // so from the first +inf on the rest are +inf without a pow call.
      const long double base = static_cast<long double>(budget) + 1.0L;
      std::uint32_t r = 0;
      for (; r < n; ++r) {
        const double scalar = static_cast<double>(
            std::pow(base, static_cast<long double>(r)));
        weighting.scalar_[order[r]] = scalar;
        if (std::isinf(scalar)) break;
      }
      for (++r; r < n; ++r) {
        weighting.scalar_[order[r]] = std::numeric_limits<double>::infinity();
      }
      break;
    }
  }
  return weighting;
}

}  // namespace podium
