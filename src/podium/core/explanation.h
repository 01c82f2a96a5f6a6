#ifndef PODIUM_CORE_EXPLANATION_H_
#define PODIUM_CORE_EXPLANATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "podium/core/instance.h"
#include "podium/core/selection.h"

namespace podium {

/// The three explanation kinds of Def. 5.1.

/// exp(G) = <label, wei(G), cov(G)> — what a group means and how important
/// it is.
struct GroupExplanation {
  GroupId group = kInvalidGroup;
  std::string label;
  double weight = 0.0;
  std::uint32_t required_coverage = 0;
};

/// exp(u) = { G : u ∈ G } — why a user was selected. Groups are ordered by
/// decreasing weight so the strongest reasons come first.
struct UserExplanation {
  UserId user = kInvalidUser;
  std::string name;
  std::vector<GroupExplanation> groups;
};

/// exp(U, G) = <cov(G), |U ∩ G|> — required versus actual coverage.
struct SubsetGroupExplanation {
  GroupId group = kInvalidGroup;
  std::string label;
  std::uint32_t required = 0;
  std::uint32_t actual = 0;

  bool covered() const { return actual >= required; }
};

GroupExplanation ExplainGroup(const DiversificationInstance& instance,
                              GroupId group);
/// The groups of `user`, in the order exp(u) lists them: by decreasing
/// weight, ties in groups_of(user) order (a stable sort).
std::vector<GroupId> GroupsByWeight(const DiversificationInstance& instance,
                                    UserId user);
UserExplanation ExplainUser(const DiversificationInstance& instance,
                            UserId user);
SubsetGroupExplanation ExplainSubsetGroup(
    const DiversificationInstance& instance, const Selection& selection,
    GroupId group);

/// A full selection report mirroring the prototype's explanation page
/// (Figure 2): per-user top-weight covered groups, the fraction of
/// top-weight groups covered, and the group list ordered by weight with
/// covered/uncovered status.
struct SelectionReport {
  /// One explanation per selected user, limited to `max_groups_per_user`
  /// top-weight groups.
  std::vector<UserExplanation> users;

  /// Coverage status of the `top_group_count` heaviest groups.
  std::vector<SubsetGroupExplanation> top_groups;

  /// Fraction of top_groups that are covered, in [0, 1].
  double top_coverage_fraction = 0.0;

  /// The base total score of the selection.
  double total_score = 0.0;
};

struct ReportOptions {
  std::size_t top_group_count = 20;
  std::size_t max_groups_per_user = 5;
};

SelectionReport BuildSelectionReport(const DiversificationInstance& instance,
                                     const Selection& selection,
                                     const ReportOptions& options = {});

/// Per-bucket score distribution of one property, population versus
/// selection (the right-hand pane of Figure 2). Fractions sum to 1 over
/// the property's buckets (all zero when no scores exist).
struct DistributionComparison {
  PropertyId property = kInvalidProperty;
  std::vector<std::string> bucket_labels;
  std::vector<double> population_fraction;
  std::vector<double> selection_fraction;
};

DistributionComparison CompareDistributions(
    const DiversificationInstance& instance, const Selection& selection,
    PropertyId property);

/// Renders a report as human-readable text (the CLI stand-in for the
/// prototype's visualization module).
std::string RenderReport(const SelectionReport& report);

}  // namespace podium

#endif  // PODIUM_CORE_EXPLANATION_H_
