#ifndef PODIUM_CORE_GREEDY_H_
#define PODIUM_CORE_GREEDY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "podium/core/selection.h"

namespace podium {

/// The argmax step of Algorithm 1 has one implementation, the plain scan
/// (RunScalarGreedy below). This enum and the `mode` members that carry it
/// (GreedyOptions, SelectCustomized, ShardedSelector, the serve request
/// and outcome) are inert: nothing in the library reads them, and they
/// remain only because the repository benchmark still compiles against
/// them. The next benchmark change deletes them.
enum class GreedyMode {
  kPlainScan,
};

struct GreedyOptions {
  GreedyMode mode = GreedyMode::kPlainScan;

  /// Candidate pool restriction (the refined user set 𝒰' of Def. 6.3).
  /// Empty means the full population.
  std::vector<UserId> candidate_pool;

  /// Group tiers for the customized score of Prop. 6.5: tier 0 gains
  /// dominate tier 1 gains lexicographically, and groups with tier >= 2
  /// are ignored ("do not diversify"). Empty means all groups in tier 0
  /// (the BASE-DIVERSITY problem). One entry per group when non-empty.
  std::vector<std::uint8_t> group_tiers;

  /// Optional deterministic tie-break permutation of all users (a repeated
  /// or missing user is InvalidArgument): ties in marginal gain
  /// are broken by preferring the user appearing earlier here. Empty means
  /// ties break by ascending user id. (The paper breaks ties arbitrarily;
  /// the prototype randomizes — pass a shuffled permutation to emulate, or
  /// set random_tie_seed below to have the selector shuffle for you.)
  std::vector<UserId> tie_break_order;

  /// When set (and tie_break_order is empty), ties break by a random
  /// permutation derived from this seed — the prototype's randomized
  /// tie-breaking (Section 10).
  std::optional<std::uint64_t> random_tie_seed;

  /// Multiplicative noise on group weights, the randomization extension
  /// the paper proposes in its future work (Section 10): each group's
  /// weight is scaled by a factor uniform in [1 - w, 1 + w] drawn from
  /// `weight_noise_seed`. 0 disables. Different seeds yield different
  /// near-optimal subsets, letting a client resample panels. Must be in
  /// [0, 1) under every weight kind; applied to Iden/LBS weights only (EBS
  /// ranks are ordinal, noise does not apply).
  double weight_noise = 0.0;
  std::uint64_t weight_noise_seed = 0;
};

/// The scalar-weight (Iden/LBS) loop of Algorithm 1, Lines 2-10: the one
/// greedy that GreedySelector::Select runs and that the sharded merge
/// round runs over its candidate union. `groups` supplies the adjacency;
/// `coverage` and `weights` (one entry per group) the objective; `tiers`
/// (one entry per group) splits gains into tier 0, which dominates, and
/// tier 1, with tier >= 2 ignored; `tie_rank` (one entry per user of
/// `groups`) breaks gain ties toward the smaller rank; `pool` lists the
/// distinct candidates. Returns up to `budget` users in pick order and
/// records the run as the `greedy.init` and `greedy.rounds` spans.
///
/// Each round scans the alive pool for the argmax. Once that argmax has
/// zero gain in both tiers and the weights are exact (non-negative
/// integers summing below 2^52), every alive gain is exactly zero and
/// stays zero, so the rest of the selection is the alive pool in ascending
/// tie rank: the run appends it without scanning and counts those picks in
/// the span's `rounds` and `tail_users`. Under weight noise, retirements
/// leave float residues, so zero-gain candidates are not exact ties and
/// the run never takes this tail.
std::vector<UserId> RunScalarGreedy(const GroupIndex& groups,
                                    std::span<const std::uint32_t> coverage,
                                    std::span<const double> weights,
                                    std::span<const std::uint8_t> tiers,
                                    std::span<const std::uint32_t> tie_rank,
                                    std::span<const UserId> pool,
                                    std::size_t budget);

/// Greedy User Selection (Algorithm 1) with the paper's data structures:
/// bidirectional user↔group links, maintained marginal contributions, and
/// link retirement when a group's remaining coverage hits zero. Guarantees
/// a (1 - 1/e)-approximation of BASE-DIVERSITY (Prop. 4.4) — and of
/// CUSTOM-DIVERSITY when tiers/pool are supplied (Prop. 6.5).
///
/// EBS weights are handled exactly, without floating-point exponentials:
/// a marginal gain under (B+1)^ord(G) orders like the user's descending
/// sequence of alive group ranks, so each round refines the alive pool to
/// the lexicographic maximum, walking alive groups from the highest rank
/// down and finishing from the last candidates' adjacency, with no
/// per-user gain state (DESIGN.md §4). EBS is supported only for the base
/// problem (no tiers).
class GreedySelector : public Selector {
 public:
  explicit GreedySelector(GreedyOptions options = {})
      : options_(std::move(options)) {}

  std::string Name() const override { return "Podium"; }

  [[nodiscard]] Result<Selection> Select(const DiversificationInstance& instance,
                           std::size_t budget) const override;

 private:
  GreedyOptions options_;
};

}  // namespace podium

#endif  // PODIUM_CORE_GREEDY_H_
