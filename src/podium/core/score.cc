#include "podium/core/score.h"

#include <algorithm>
#include <vector>

#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// Grain for the group-sum loop: below this many groups the plan is a
/// single chunk and the loop is the plain serial accumulation, so small
/// instances keep bit-identical arithmetic with zero dispatch cost.
constexpr std::size_t kGroupGrain = 4096;

}  // namespace

std::vector<std::uint32_t> MembersSelectedPerGroup(
    const DiversificationInstance& instance, std::span<const UserId> subset) {
  std::vector<std::uint32_t> selected(instance.groups().group_count(), 0);
  for (UserId u : subset) {
    for (GroupId g : instance.groups().groups_of(u)) ++selected[g];
  }
  return selected;
}

double TotalScore(const DiversificationInstance& instance,
                  std::span<const UserId> subset) {
  const std::vector<std::uint32_t> selected =
      MembersSelectedPerGroup(instance, subset);
  // Per-chunk partial sums combined in chunk order: the chunk plan depends
  // only on the group count, so the floating-point result is identical at
  // any thread count.
  const util::ChunkPlan plan =
      util::PlanChunks(selected.size(), kGroupGrain);
  std::vector<double> partial(plan.num_chunks, 0.0);
  util::ParallelFor(
      selected.size(),
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        double sum = 0.0;
        for (GroupId g = begin; g < end; ++g) {
          if (selected[g] == 0) continue;
          sum += instance.weight(g) *
                 static_cast<double>(
                     std::min(selected[g], instance.coverage(g)));
        }
        partial[chunk] = sum;
      },
      kGroupGrain);
  double score = 0.0;
  for (double sum : partial) score += sum;
  return score;
}

double RestrictedScore(const DiversificationInstance& instance,
                       std::span<const UserId> subset,
                       const std::vector<bool>& group_mask) {
  const std::vector<std::uint32_t> selected =
      MembersSelectedPerGroup(instance, subset);
  double score = 0.0;
  for (GroupId g = 0; g < selected.size(); ++g) {
    if (selected[g] == 0 || !group_mask[g]) continue;
    score += instance.weight(g) *
             static_cast<double>(std::min(selected[g], instance.coverage(g)));
  }
  return score;
}

std::size_t CoveredGroupCount(const DiversificationInstance& instance,
                              std::span<const UserId> subset) {
  const std::vector<std::uint32_t> selected =
      MembersSelectedPerGroup(instance, subset);
  return static_cast<std::size_t>(
      std::count_if(selected.begin(), selected.end(),
                    [](std::uint32_t c) { return c > 0; }));
}

}  // namespace podium
