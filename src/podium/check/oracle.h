#ifndef PODIUM_CHECK_ORACLE_H_
#define PODIUM_CHECK_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "podium/core/instance.h"
#include "podium/core/selection.h"
#include "podium/util/result.h"

namespace podium::check {

/// Reference oracles for differential testing: deliberately dumb, direct
/// transcriptions of the paper's definitions with none of the optimized
/// paths' data structures (no maintained marginals, no zero-gain tail, no CSR,
/// no threads). Each is small enough to audit by eye; the optimized code
/// is correct exactly when it agrees with these byte for byte.
///
/// All oracles assume scalar (Iden/LBS) weights, where every quantity is a
/// sum of small integers and double arithmetic is exact — so "agrees"
/// means operator==, not within-epsilon.

/// score_𝒢(U) straight from Def. 3.3: for every group, count members in
/// `subset` by scanning the subset per group member — no index, no CSR.
double OracleScore(const DiversificationInstance& instance,
                   std::span<const UserId> subset);

/// As OracleScore but restricted to groups whose tier equals `tier`
/// (tiers empty means every group has tier 0).
double OracleTierScore(const DiversificationInstance& instance,
                       std::span<const UserId> subset,
                       const std::vector<std::uint8_t>& tiers,
                       std::uint8_t tier);

/// The pre-CSR nested adjacency: one vector per group / per user, rebuilt
/// from the repository's profiles and the instance's group definitions —
/// NOT from the CSR arrays — so it is an independent witness of what the
/// flattened index must contain.
struct NestedGroups {
  std::vector<std::vector<UserId>> members;    // per group, ascending
  std::vector<std::vector<GroupId>> groups_of; // per user, ascending
};
NestedGroups BuildNestedGroups(const DiversificationInstance& instance);

/// Compares both CSR directions of `instance.groups()` against the nested
/// oracle index; any mismatch is a divergence.
Status CheckAdjacency(const DiversificationInstance& instance);

/// Greedy User Selection straight from Algorithm 1, O(B · |𝒰| · cost of
/// scoring): each round recomputes every candidate's marginal gain as
/// OracleScore(S ∪ {u}) − OracleScore(S) and takes the argmax, ties by
/// ascending user id — the optimized selectors' default tie-break.
/// `pool` empty means the full population; `tiers` empty means all groups
/// in tier 0 (tier 0 gains dominate tier 1 lexicographically; tier >= 2
/// is ignored, matching GreedyOptions::group_tiers).
Result<Selection> OracleGreedy(const DiversificationInstance& instance,
                               std::size_t budget,
                               std::vector<UserId> pool = {},
                               std::vector<std::uint8_t> tiers = {});

}  // namespace podium::check

#endif  // PODIUM_CHECK_ORACLE_H_
