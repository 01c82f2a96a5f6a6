#include "podium/core/customization.h"

#include <algorithm>
#include <map>

#include "podium/core/score.h"

namespace podium {

bool operator<(const DualScore& a, const DualScore& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.standard < b.standard;
}

namespace {

Status ValidateGroups(const DiversificationInstance& instance,
                      const std::vector<GroupId>& groups) {
  for (GroupId g : groups) {
    if (g >= instance.groups().group_count()) {
      return Status::OutOfRange("feedback references unknown group id");
    }
  }
  return Status::Ok();
}

Status ValidateFeedback(const DiversificationInstance& instance,
                        const CustomizationFeedback& feedback) {
  PODIUM_RETURN_IF_ERROR(ValidateGroups(instance, feedback.must_have));
  PODIUM_RETURN_IF_ERROR(ValidateGroups(instance, feedback.must_not));
  PODIUM_RETURN_IF_ERROR(ValidateGroups(instance, feedback.priority));
  PODIUM_RETURN_IF_ERROR(ValidateGroups(instance, feedback.standard));
  return Status::Ok();
}

/// Tier per group under `feedback`: 0 = priority, 1 = standard,
/// kIgnored = excluded from coverage.
std::vector<std::uint8_t> ComputeTiers(const DiversificationInstance& instance,
                                       const CustomizationFeedback& feedback) {
  const std::size_t n = instance.groups().group_count();
  std::vector<std::uint8_t> tiers(n, feedback.standard_is_rest ? 1 : 2);
  if (!feedback.standard_is_rest) {
    for (GroupId g : feedback.standard) tiers[g] = 1;
  }
  for (GroupId g : feedback.priority) tiers[g] = 0;
  return tiers;
}

}  // namespace

Result<std::vector<UserId>> RefineUsers(
    const DiversificationInstance& instance,
    const CustomizationFeedback& feedback) {
  PODIUM_RETURN_IF_ERROR(ValidateFeedback(instance, feedback));
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = instance.repository().user_count();

  // 𝒢₊ grouped by property: within one property membership in any listed
  // bucket suffices; across properties all must be satisfied.
  std::map<PropertyId, std::vector<GroupId>> must_have_by_property;
  for (GroupId g : feedback.must_have) {
    must_have_by_property[groups.def(g).property].push_back(g);
  }

  std::vector<char> eligible(num_users, 1);
  for (const auto& [property, buckets] : must_have_by_property) {
    std::vector<char> satisfies(num_users, 0);
    for (GroupId g : buckets) {
      for (UserId u : groups.members(g)) satisfies[u] = 1;
    }
    for (UserId u = 0; u < num_users; ++u) {
      if (!satisfies[u]) eligible[u] = 0;
    }
  }
  for (GroupId g : feedback.must_not) {
    for (UserId u : groups.members(g)) eligible[u] = 0;
  }

  std::vector<UserId> refined;
  for (UserId u = 0; u < num_users; ++u) {
    if (eligible[u]) refined.push_back(u);
  }
  return refined;
}

Result<DualScore> CustomizedScore(const DiversificationInstance& instance,
                                  const CustomizationFeedback& feedback,
                                  std::span<const UserId> subset) {
  PODIUM_RETURN_IF_ERROR(ValidateFeedback(instance, feedback));
  const std::vector<std::uint8_t> tiers = ComputeTiers(instance, feedback);
  const std::size_t n = instance.groups().group_count();
  std::vector<bool> priority_mask(n, false);
  std::vector<bool> standard_mask(n, false);
  for (GroupId g = 0; g < n; ++g) {
    if (tiers[g] == 0) priority_mask[g] = true;
    if (tiers[g] == 1) standard_mask[g] = true;
  }
  return DualScore{RestrictedScore(instance, subset, priority_mask),
                   RestrictedScore(instance, subset, standard_mask)};
}

Result<CustomSelection> SelectCustomized(
    const DiversificationInstance& instance,
    const CustomizationFeedback& feedback, std::size_t budget,
    GreedyMode /*mode*/) {
  if (instance.weight_kind() == WeightKind::kEbs) {
    return Status::Unimplemented(
        "customized selection is not supported with EBS weights");
  }
  Result<std::vector<UserId>> refined = RefineUsers(instance, feedback);
  if (!refined.ok()) return refined.status();
  if (refined->empty()) {
    return Status::FailedPrecondition(
        "customization feedback filtered out every user");
  }

  GreedyOptions options;
  options.candidate_pool = refined.value();
  options.group_tiers = ComputeTiers(instance, feedback);
  GreedySelector selector(std::move(options));
  Result<Selection> selection = selector.Select(instance, budget);
  if (!selection.ok()) return selection.status();

  CustomSelection custom;
  custom.refined_pool_size = refined->size();
  Result<DualScore> score =
      CustomizedScore(instance, feedback, selection->users);
  if (!score.ok()) return score.status();
  custom.score = score.value();
  custom.selection = std::move(selection).value();
  return custom;
}

}  // namespace podium
