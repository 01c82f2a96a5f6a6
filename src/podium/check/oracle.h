#ifndef PODIUM_CHECK_ORACLE_H_
#define PODIUM_CHECK_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "podium/core/instance.h"
#include "podium/core/selection.h"
#include "podium/json/value.h"
#include "podium/profile/repository.h"
#include "podium/serve/request.h"
#include "podium/util/result.h"

namespace podium::check {

/// Reference oracles for differential testing: deliberately dumb, direct
/// transcriptions of the paper's definitions with none of the optimized
/// paths' data structures (no maintained marginals, no zero-gain tail, no CSR,
/// no threads). Each is small enough to audit by eye; the optimized code
/// is correct exactly when it agrees with these byte for byte.
///
/// The scalar oracles assume Iden/LBS weights, where every quantity is a
/// sum of small integers and double arithmetic is exact — so "agrees"
/// means operator==, not within-epsilon. EBS has its own oracle,
/// OracleEbsGreedy, which compares ranks and never adds a weight.

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

/// Greedy User Selection under EBS weights, wei(G) = (B+1)^ord(G), straight
/// from Algorithm 1: every round recomputes, from the group definitions
/// (not the CSR), which groups are alive (|S ∩ G| < cov(G)) and each
/// candidate's alive ranks, and takes the candidate whose descending rank
/// sequence is the lexicographic maximum — the order the exponential
/// weights induce, with a longer sequence winning a tied prefix. Ties go
/// to the user earlier in `tie_order`; empty means ascending id. `pool`
/// empty means the full population. Users only; the score is not
/// computed (saturated weights make it +inf or NaN).
Result<std::vector<UserId>> OracleEbsGreedy(
    const DiversificationInstance& instance, std::size_t budget,
    std::vector<UserId> pool = {}, std::vector<UserId> tie_order = {});

/// The profiles exchange format (profile/repository_io.h) read from the
/// whole json::Value tree that json::Parse builds: kinds interned first,
/// then each user in order, each lookup through json::Object (whose Set
/// keeps a repeated key's first position and last value). The reference
/// that ParseRepositoryJson's single streaming pass must equal, as the
/// same repository or the same error.
Result<ProfileRepository> RepositoryFromJson(const json::Value& document);

/// The selection reply body as the serve layer wrote it while replies were
/// json::Value trees: the whole document built as one tree, then written
/// by json::Write. When outcome.request.explain and `explain` is set, each
/// selected user gets an exp(u) block from `explain`: its groups found from
/// the group definitions (not the CSR), ordered by this function's own
/// stable sort on decreasing weight. The reference that
/// serve::SerializeOutcome's streamed bytes must equal.
std::string ReferenceReply(const serve::SelectionOutcome& outcome,
                           const DiversificationInstance* explain);

}  // namespace podium::check

#endif  // PODIUM_CHECK_ORACLE_H_
