#include "podium/core/explanation.h"

#include <algorithm>
#include <span>

#include "podium/core/score.h"
#include "podium/util/string_util.h"

namespace podium {

GroupExplanation ExplainGroup(const DiversificationInstance& instance,
                              GroupId group) {
  return GroupExplanation{group, instance.groups().label(group),
                          instance.weight(group), instance.coverage(group)};
}

std::vector<GroupId> GroupsByWeight(const DiversificationInstance& instance,
                                    UserId user) {
  const std::span<const GroupId> of = instance.groups().groups_of(user);
  std::vector<GroupId> groups(of.begin(), of.end());
  std::stable_sort(groups.begin(), groups.end(),
                   [&instance](GroupId a, GroupId b) {
                     return instance.weight(a) > instance.weight(b);
                   });
  return groups;
}

UserExplanation ExplainUser(const DiversificationInstance& instance,
                            UserId user) {
  UserExplanation explanation;
  explanation.user = user;
  explanation.name = instance.repository().user(user).name();
  for (GroupId g : GroupsByWeight(instance, user)) {
    explanation.groups.push_back(ExplainGroup(instance, g));
  }
  return explanation;
}

SubsetGroupExplanation ExplainSubsetGroup(
    const DiversificationInstance& instance, const Selection& selection,
    GroupId group) {
  std::uint32_t actual = 0;
  for (UserId u : selection.users) {
    if (instance.groups().Contains(group, u)) ++actual;
  }
  return SubsetGroupExplanation{group, instance.groups().label(group),
                                instance.coverage(group), actual};
}

SelectionReport BuildSelectionReport(const DiversificationInstance& instance,
                                     const Selection& selection,
                                     const ReportOptions& options) {
  SelectionReport report;
  report.total_score = TotalScore(instance, selection.users);

  // Group list ordered by decreasing weight (ties: larger first, then id).
  std::vector<GroupId> by_weight(instance.groups().group_count());
  for (GroupId g = 0; g < by_weight.size(); ++g) by_weight[g] = g;
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [&instance](GroupId a, GroupId b) {
                     if (instance.weight(a) != instance.weight(b)) {
                       return instance.weight(a) > instance.weight(b);
                     }
                     return instance.groups().group_size(a) >
                            instance.groups().group_size(b);
                   });
  const std::vector<std::uint32_t> actual =
      MembersSelectedPerGroup(instance, selection.users);

  const std::size_t top_count =
      std::min(options.top_group_count, by_weight.size());
  std::size_t covered = 0;
  for (std::size_t i = 0; i < top_count; ++i) {
    const GroupId g = by_weight[i];
    SubsetGroupExplanation entry{g, instance.groups().label(g),
                                 instance.coverage(g), actual[g]};
    if (entry.covered()) ++covered;
    report.top_groups.push_back(std::move(entry));
  }
  report.top_coverage_fraction =
      top_count == 0 ? 0.0
                     : static_cast<double>(covered) /
                           static_cast<double>(top_count);

  for (UserId u : selection.users) {
    UserExplanation explanation = ExplainUser(instance, u);
    if (explanation.groups.size() > options.max_groups_per_user) {
      explanation.groups.resize(options.max_groups_per_user);
    }
    report.users.push_back(std::move(explanation));
  }
  return report;
}

DistributionComparison CompareDistributions(
    const DiversificationInstance& instance, const Selection& selection,
    PropertyId property) {
  DistributionComparison comparison;
  comparison.property = property;
  const auto& buckets = instance.groups().buckets_per_property()[property];
  comparison.bucket_labels.reserve(buckets.size());
  comparison.population_fraction.assign(buckets.size(), 0.0);
  comparison.selection_fraction.assign(buckets.size(), 0.0);
  for (const auto& bucket : buckets) {
    comparison.bucket_labels.push_back(bucket.label);
  }
  if (buckets.empty()) return comparison;

  const ProfileRepository& repository = instance.repository();
  double population_total = 0.0;
  double selection_total = 0.0;
  std::vector<bool> selected(repository.user_count(), false);
  for (UserId u : selection.users) selected[u] = true;
  for (UserId u = 0; u < repository.user_count(); ++u) {
    const auto score = repository.user(u).Get(property);
    if (!score.has_value()) continue;
    const int b = bucketing::FindBucket(buckets, *score);
    if (b < 0) continue;
    comparison.population_fraction[static_cast<std::size_t>(b)] += 1.0;
    population_total += 1.0;
    if (selected[u]) {
      comparison.selection_fraction[static_cast<std::size_t>(b)] += 1.0;
      selection_total += 1.0;
    }
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (population_total > 0.0) {
      comparison.population_fraction[b] /= population_total;
    }
    if (selection_total > 0.0) {
      comparison.selection_fraction[b] /= selection_total;
    }
  }
  return comparison;
}

std::string RenderReport(const SelectionReport& report) {
  std::string out;
  out += util::StringPrintf("Selected %zu users, total score %s\n",
                            report.users.size(),
                            util::FormatDouble(report.total_score).c_str());
  out += util::StringPrintf(
      "Top-%zu group coverage: %s%%\n\n", report.top_groups.size(),
      util::FormatDouble(100.0 * report.top_coverage_fraction, 1).c_str());

  out += "Selected users and their top-weight groups:\n";
  for (const UserExplanation& user : report.users) {
    out += "  " + user.name + "\n";
    for (const GroupExplanation& group : user.groups) {
      out += util::StringPrintf(
          "    - %s (weight %s, cov %u)\n", group.label.c_str(),
          util::FormatDouble(group.weight).c_str(), group.required_coverage);
    }
  }

  out += "\nGroups by weight (covered -> [x]):\n";
  for (const SubsetGroupExplanation& group : report.top_groups) {
    out += util::StringPrintf("  [%c] %s (required %u, actual %u)\n",
                              group.covered() ? 'x' : ' ',
                              group.label.c_str(), group.required,
                              group.actual);
  }
  return out;
}

}  // namespace podium
