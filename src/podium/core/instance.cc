#include "podium/core/instance.h"

namespace podium {

Result<DiversificationInstance> DiversificationInstance::Build(
    const ProfileRepository& repository, const InstanceOptions& options) {
  Result<GroupIndex> groups = GroupIndex::Build(repository, options.grouping);
  if (!groups.ok()) return groups.status();
  return FromGroups(repository, std::move(groups).value(),
                    options.weight_kind, options.coverage_kind,
                    options.budget);
}

Result<DiversificationInstance> DiversificationInstance::FromGroups(
    const ProfileRepository& repository, GroupIndex groups,
    WeightKind weight_kind, CoverageKind coverage_kind, std::size_t budget) {
  GroupWeighting weights = GroupWeighting::Compute(groups, weight_kind, budget);
  std::vector<std::uint32_t> coverage =
      ComputeCoverage(groups, coverage_kind, budget, repository.user_count());
  return FromGroupsWithScoring(repository, std::move(groups),
                               std::move(weights), coverage_kind,
                               std::move(coverage), budget);
}

Result<DiversificationInstance> DiversificationInstance::FromGroupsWithScoring(
    const ProfileRepository& repository, GroupIndex groups,
    GroupWeighting weights, CoverageKind coverage_kind,
    std::vector<std::uint32_t> coverage, std::size_t budget) {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (groups.user_count() != repository.user_count()) {
    return Status::InvalidArgument(
        "group index was built over a different population");
  }
  if (weights.group_count() != groups.group_count() ||
      coverage.size() != groups.group_count()) {
    return Status::InvalidArgument(
        "injected weights/coverage disagree with the group count");
  }
  DiversificationInstance instance;
  instance.repository_ = &repository;
  instance.weights_ = std::move(weights);
  instance.coverage_kind_ = coverage_kind;
  instance.coverage_ = std::move(coverage);
  instance.groups_ = std::move(groups);
  instance.budget_ = budget;
  return instance;
}

}  // namespace podium
