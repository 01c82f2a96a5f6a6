#include "podium/core/greedy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "podium/core/kernels.h"
#include "podium/core/score.h"
#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/arena.h"
#include "podium/util/bitset.h"
#include "podium/util/rng.h"
#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// One greedy run's data-structure work. The hot loop touches only these
/// locals; Publish() reports the totals once, as attributes of the run's
/// `greedy.rounds` span and into the `greedy.*` counters.
struct GreedyRunStats {
  std::uint64_t rounds = 0;
  std::uint64_t tail_users = 0;
  std::uint64_t retired_links = 0;
  std::uint64_t retired_groups = 0;

  void Publish(obs::Span& rounds_span) const {
    rounds_span.SetAttribute("rounds", static_cast<double>(rounds));
    rounds_span.SetAttribute("retired_links",
                             static_cast<double>(retired_links));
    rounds_span.SetAttribute("retired_groups",
                             static_cast<double>(retired_groups));
    rounds_span.SetAttribute("tail_users", static_cast<double>(tail_users));
    auto& registry = obs::MetricsRegistry::Global();
    registry.counter("greedy.runs").Add();
    registry.counter("greedy.rounds").Add(rounds);
    registry.counter("greedy.tail_users").Add(tail_users);
    registry.counter("greedy.retired_links").Add(retired_links);
    registry.counter("greedy.retired_groups").Add(retired_groups);
  }
};

/// Tier count used by the scalar path: tier 0 ("priority coverage") and
/// tier 1 ("standard coverage"). Base instances use tier 0 only.
constexpr std::uint8_t kIgnoredTier = 2;

/// Grain for loops chunked over the candidate pool during initialization.
constexpr std::size_t kPoolGrain = 512;

/// True when every weight is a non-negative integral double and the grand
/// total stays below 2^52: integer-valued double sums under 2^53 are exact
/// in every association order, so the SIMD accumulator's reassociated sum
/// is bit-identical to the scalar left fold. Iden (all 1.0) and LBS
/// (group sizes) always qualify; weight-noise runs never do.
bool ExactUnderReassociation(std::span<const double> weights) {
  constexpr double kLimit = 4503599627370496.0;  // 2^52
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || w != std::floor(w)) return false;
    total += w;
  }
  return total < kLimit;
}

// Per-run greedy state as structure-of-arrays in one 64-byte-aligned
// arena block: parallel gain arrays per tier (gain0/gain1 instead of a
// vector of per-user pairs), per-group remaining counts and dead flags,
// byte in-pool flags for the gather kernels, a word-walkable alive bitset
// for the argmax scan, and the weights pre-split by tier (w0/w1 carry
// 0.0 for groups of any other tier, which accumulates as an exact no-op).
// The arena's guard bytes license the AVX2 flag gathers past the last
// user id.
struct SoaState {
  util::Arena arena;
  std::span<double> gain0;                // per user, tier-0 marginal gain
  std::span<double> gain1;                // per user, tier-1 marginal gain
  std::span<std::uint32_t> remaining;     // per group: cov(G) minus selected
  std::span<std::uint8_t> group_dead;     // remaining hit zero
  std::span<std::uint8_t> in_pool;        // per user, byte flag for kernels
  util::FixedBitset alive;                // same set, word-walkable
  std::span<double> w0;                   // per group: weight if tier 0
  std::span<double> w1;                   // per group: weight if tier 1

  SoaState(std::size_t num_users, std::size_t num_groups)
      : arena(util::Arena::BytesFor<double>(num_users) * 2 +
              util::Arena::BytesFor<std::uint32_t>(num_groups) +
              util::Arena::BytesFor<std::uint8_t>(num_groups) +
              util::Arena::BytesFor<std::uint8_t>(num_users) +
              util::Arena::BytesFor<std::uint64_t>(
                  util::FixedBitset::WordsFor(num_users)) +
              util::Arena::BytesFor<double>(num_groups) * 2) {
    gain0 = arena.AllocateSpan<double>(num_users);
    gain1 = arena.AllocateSpan<double>(num_users);
    remaining = arena.AllocateSpan<std::uint32_t>(num_groups);
    group_dead = arena.AllocateSpan<std::uint8_t>(num_groups);
    in_pool = arena.AllocateSpan<std::uint8_t>(num_users);
    alive = util::FixedBitset(
        arena.AllocateSpan<std::uint64_t>(util::FixedBitset::WordsFor(num_users)),
        num_users);
    w0 = arena.AllocateSpan<double>(num_groups);
    w1 = arena.AllocateSpan<double>(num_groups);
  }
};

/// The zero-gain tail of both greedy loops: appends up to `count` users of
/// the alive pool to `users` in ascending tie rank and returns how many it
/// appended. Out of line so that the round loop, which most runs never
/// leave early, keeps the shape it has without it.
[[gnu::noinline]] std::size_t AppendZeroGainTail(
    const util::FixedBitset& alive, std::span<const std::uint32_t> tie_rank,
    std::size_t count, std::vector<UserId>& users) {
  std::vector<UserId> rest;
  rest.reserve(alive.CountSet());
  alive.ForEachSet(
      [&](std::size_t i) { rest.push_back(static_cast<UserId>(i)); });
  const auto take = static_cast<std::ptrdiff_t>(std::min(count, rest.size()));
  std::partial_sort(
      rest.begin(), rest.begin() + take, rest.end(),
      [&](UserId a, UserId b) { return tie_rank[a] < tie_rank[b]; });
  users.insert(users.end(), rest.begin(), rest.begin() + take);
  return static_cast<std::size_t>(take);
}

/// The working state of one EBS run (RunEbsGreedy). None of it is a
/// per-user gain: `mark` only stamps the current candidates with an epoch,
/// and the rest is per group, per rank, or buffers reused across rounds.
struct EbsState {
  /// A candidate's alive ranks below the finishing bound, as the max-heap
  /// ranks[begin, end).
  struct RankHeap {
    UserId user;
    std::size_t begin;
    std::size_t end;
  };

  const GroupIndex& groups;
  const GroupWeighting& weights;
  std::span<const std::uint32_t> tie_rank;
  std::vector<GroupId> group_at;         // per rank: the group holding it
  std::vector<std::uint8_t> dead;        // per rank: |S ∩ G| reached cov(G)
  std::vector<std::uint32_t> remaining;  // per group: cov(G) minus selected
  std::vector<std::uint32_t> mark;       // per user: the last epoch stamped
  std::uint32_t epoch = 0;               // candidates carry mark == epoch
  std::vector<UserId> candidates;        // the candidates once narrowed
  std::size_t candidate_links = 0;       // their summed groups_of size
  std::vector<UserId> narrowed;          // buffer for Narrow()
  std::vector<std::uint32_t> ranks;      // buffer for FinishFromAdjacency()
  std::vector<RankHeap> heaps;           // buffer for FinishFromAdjacency()
  std::uint64_t reads = 0;               // member and adjacency ids read

  EbsState(const DiversificationInstance& instance,
           std::span<const std::uint32_t> tie_rank_in)
      : groups(instance.groups()),
        weights(instance.weights()),
        tie_rank(tie_rank_in),
        group_at(groups.group_count()),
        dead(groups.group_count()),
        remaining(instance.coverage()),
        mark(instance.repository().user_count(), 0) {
    for (GroupId g = 0; g < group_at.size(); ++g) {
      const std::uint32_t rank = weights.rank(g);
      group_at[rank] = g;
      dead[rank] = remaining[g] == 0;
    }
  }

  /// Narrows the candidates, which `is_candidate` recognizes, to the
  /// members of `g` and stamps them with the next epoch. Returns false,
  /// changing nothing, when `g` holds no candidate.
  template <typename IsCandidate>
  bool Narrow(GroupId g, IsCandidate&& is_candidate) {
    const auto members = groups.members(g);
    reads += members.size();
    // Branch-free filter: write every id, advance past the kept ones.
    narrowed.resize(members.size());
    std::size_t kept = 0;
    for (UserId u : members) {
      narrowed[kept] = u;
      kept += is_candidate(u) ? 1 : 0;
    }
    if (kept == 0) return false;
    narrowed.resize(kept);
    candidate_links = 0;
    for (UserId u : narrowed) {
      mark[u] = epoch + 1;
      candidate_links += groups.groups_of(u).size();
    }
    ++epoch;
    candidates.swap(narrowed);
    return true;
  }

  /// Among the candidates, which agree on every alive rank at or above
  /// `bound`, the one whose descending alive ranks below `bound` are the
  /// lexicographic maximum (a longer sequence wins a tied prefix), then
  /// the smallest tie rank. Reads only the candidates' own adjacency: each
  /// candidate's ranks form a max-heap, and every step keeps the
  /// candidates whose next rank is the largest.
  UserId FinishFromAdjacency(std::uint32_t bound) {
    ranks.clear();
    heaps.clear();
    for (UserId u : candidates) {
      const std::size_t begin = ranks.size();
      if (bound > 0) {
        const auto adjacent = groups.groups_of(u);
        reads += adjacent.size();
        for (GroupId g : adjacent) {
          const std::uint32_t rank = weights.rank(g);
          if (rank < bound && !dead[rank]) ranks.push_back(rank);
        }
        std::make_heap(ranks.begin() + static_cast<std::ptrdiff_t>(begin),
                       ranks.end());
      }
      heaps.push_back({u, begin, ranks.size()});
    }
    while (heaps.size() > 1) {
      std::int64_t next = -1;
      for (const RankHeap& heap : heaps) {
        if (heap.begin < heap.end) {
          next = std::max<std::int64_t>(next, ranks[heap.begin]);
        }
      }
      if (next < 0) break;  // every sequence ended: the rest tie
      std::size_t kept = 0;
      for (RankHeap heap : heaps) {
        if (heap.begin == heap.end || ranks[heap.begin] != next) continue;
        std::pop_heap(ranks.begin() + static_cast<std::ptrdiff_t>(heap.begin),
                      ranks.begin() + static_cast<std::ptrdiff_t>(heap.end));
        --heap.end;
        heaps[kept++] = heap;
      }
      heaps.resize(kept);
    }
    return std::min_element(heaps.begin(), heaps.end(),
                            [&](const RankHeap& a, const RankHeap& b) {
                              return tie_rank[a.user] < tie_rank[b.user];
                            })
        ->user;
  }
};

/// Algorithm 1 under EBS weights, wei(G) = (B+1)^ord(G). The ranks are
/// distinct and the base is at least 2, so one alive group outweighs all
/// alive groups of lower rank together: marginal gains order like the
/// users' descending sequences of alive ranks, compared lexicographically
/// with a longer sequence winning a tied prefix. Each round refines the
/// alive pool to that maximum with no per-user state. It walks the alive
/// groups from the highest rank down, and a group that holds some of the
/// candidates narrows them to its members. Once the candidates' summed
/// adjacency is smaller than the next alive group, it finishes from that
/// adjacency instead (EbsState::FinishFromAdjacency). Ties left at the end
/// go to the smaller tie rank. Dead groups never revive, so the walk's
/// start only moves down; once every group is dead, every alive gain is
/// zero and the rest of the pool follows in tie-rank order (`tail_users`).
Selection RunEbsGreedy(const DiversificationInstance& instance,
                       std::size_t budget, std::span<const UserId> pool,
                       std::span<const std::uint32_t> tie_rank) {
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = instance.repository().user_count();
  const std::size_t num_groups = groups.group_count();

  std::optional<obs::Span> phase;
  phase.emplace("greedy.init");
  EbsState state(instance, tie_rank);
  std::vector<std::uint64_t> alive_words(
      util::FixedBitset::WordsFor(num_users), 0);
  util::FixedBitset alive(alive_words, num_users);
  std::size_t alive_links = 0;  // summed groups_of size of the alive pool
  for (UserId u : pool) {
    alive.Set(u);
    alive_links += groups.groups_of(u).size();
  }

  phase.emplace("greedy.rounds");
  GreedyRunStats stats;
  Selection selection;
  selection.users.reserve(std::min(budget, pool.size()));
  std::size_t pool_left = pool.size();
  std::size_t top = num_groups;  // every rank >= top is dead
  while (selection.users.size() < budget && pool_left > 0) {
    while (top > 0 && state.dead[top - 1]) --top;
    if (top == 0) {
      stats.tail_users = AppendZeroGainTail(
          alive, tie_rank, budget - selection.users.size(), selection.users);
      stats.rounds += stats.tail_users;
      break;
    }
    // A round advances the epoch at most once per group: restart the
    // stamps before it could wrap.
    if (state.epoch > std::numeric_limits<std::uint32_t>::max() - num_groups) {
      std::fill(state.mark.begin(), state.mark.end(), 0);
      state.epoch = 0;
    }

    // Line 5: maxUser = argmax marg. The candidates are the alive pool
    // until the first narrowing; they agree on every alive rank >= bound.
    bool whole_pool = true;
    std::size_t count = pool_left;
    std::size_t links = alive_links;
    std::size_t bound = top;
    while (count > 1) {
      while (bound > 0 && state.dead[bound - 1]) --bound;
      if (bound == 0 ||
          links < groups.group_size(state.group_at[bound - 1])) {
        break;
      }
      const GroupId g = state.group_at[--bound];
      const bool narrowed =
          whole_pool
              ? state.Narrow(g, [&](UserId u) { return alive.Test(u); })
              : state.Narrow(g, [&](UserId u) {
                  return state.mark[u] == state.epoch;
                });
      if (!narrowed) continue;
      whole_pool = false;
      count = state.candidates.size();
      links = state.candidate_links;
    }
    if (whole_pool) {
      state.candidates.clear();
      alive.ForEachSet([&](std::size_t u) {
        state.candidates.push_back(static_cast<UserId>(u));
      });
    }
    const UserId chosen =
        count == 1 ? state.candidates.front()
                   : state.FinishFromAdjacency(
                         static_cast<std::uint32_t>(bound));

    // Lines 6-10: move the user, decrement coverage, mark dead groups.
    // The gains are the alive ranks themselves: nothing is charged back.
    selection.users.push_back(chosen);
    alive.Clear(chosen);
    --pool_left;
    const auto adjacent = groups.groups_of(chosen);
    alive_links -= adjacent.size();
    state.reads += adjacent.size();
    for (GroupId g : adjacent) {
      const std::uint32_t rank = state.weights.rank(g);
      if (state.dead[rank] || --state.remaining[g] > 0) continue;
      state.dead[rank] = 1;
      ++stats.retired_groups;
    }
    ++stats.rounds;
  }
  stats.Publish(*phase);
  // The refinement's own work. Published here rather than through
  // GreedyRunStats, which RunScalarGreedy inlines: its argmax loop's code
  // generation follows that inlined body (EXPERIMENTS.md, "Exact EBS by
  // refinement").
  phase->SetAttribute("ebs_reads", static_cast<double>(state.reads));
  obs::MetricsRegistry::Global().counter("greedy.ebs_reads").Add(state.reads);
  phase.emplace("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

}  // namespace

std::vector<UserId> RunScalarGreedy(const GroupIndex& groups,
                                    std::span<const std::uint32_t> coverage,
                                    std::span<const double> weights,
                                    std::span<const std::uint8_t> tiers,
                                    std::span<const std::uint32_t> tie_rank,
                                    std::span<const UserId> pool,
                                    std::size_t budget) {
  const std::size_t num_users = groups.user_count();
  const std::size_t num_groups = groups.group_count();

  // Phase accounting: "greedy.init" covers the marginal-gain setup,
  // "greedy.rounds" the selection loop.
  std::optional<obs::Span> phase;
  phase.emplace("greedy.init");
  SoaState state(num_users, num_groups);
  std::copy(coverage.begin(), coverage.end(), state.remaining.begin());
  for (UserId u : pool) {
    state.in_pool[u] = 1;
    state.alive.Set(u);
  }
  bool has_tier1 = false;
  for (GroupId g = 0; g < num_groups; ++g) {
    const std::uint8_t tier = tiers[g];
    state.w0[g] = tier == 0 ? weights[g] : 0.0;
    state.w1[g] = tier == 1 ? weights[g] : 0.0;
    has_tier1 |= tier == 1;
  }
  const bool exact_reassoc = ExactUnderReassociation(weights);
  const double* w1_or_null = has_tier1 ? state.w1.data() : nullptr;

  // Line 2 of Algorithm 1: marg_{u,∅} = Σ_{G ∋ u} wei(G), accumulated per
  // tier by the kernel over the pre-split weight arrays (groups of other
  // tiers contribute an exact +0.0). Pool users are distinct, so chunks
  // write disjoint gain slots.
  util::ParallelFor(
      pool.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const UserId u = pool[i];
          kernels::AccumulateTieredGains(groups.groups_of(u), state.w0.data(),
                                         w1_or_null, exact_reassoc,
                                         &state.gain0[u], &state.gain1[u]);
        }
      },
      kPoolGrain);

  // Prefer larger gains (tier 0, then tier 1); among equal gains, smaller
  // tie rank.
  auto better = [&](UserId a, UserId b) {
    if (state.gain0[a] != state.gain0[b]) return state.gain0[a] > state.gain0[b];
    if (state.gain1[a] != state.gain1[b]) return state.gain1[a] > state.gain1[b];
    return tie_rank[a] < tie_rank[b];
  };

  phase.emplace("greedy.rounds");
  GreedyRunStats stats;
  std::vector<UserId> selected;
  selected.reserve(std::min(budget, pool.size()));
  std::size_t pool_left = pool.size();
  bool zero_gain_tail = false;
  for (std::size_t round = 0; round < budget && pool_left > 0; ++round) {
    // Line 5: maxUser = argmax marg. The bitset walk visits users in
    // ascending id order rather than pool order; the argmax is the same
    // because (gain0, gain1, tie_rank) is a strict total order over
    // distinct pool users — no two compare equal, so the winner does not
    // depend on iteration order.
    UserId chosen = kInvalidUser;
    state.alive.ForEachSet([&](std::size_t i) {
      const UserId u = static_cast<UserId>(i);
      if (chosen == kInvalidUser || better(u, chosen)) chosen = u;
    });
    // Exact weights make every gain an exact sum of non-negative alive-group
    // weights, so a zero maximum is zero everywhere, for good (core/greedy.h).
    if (exact_reassoc && state.gain0[chosen] == 0.0 &&
        state.gain1[chosen] == 0.0) {
      zero_gain_tail = true;
      break;
    }

    // Lines 6-10: move the user, decrement coverage, retire dead groups
    // and charge their weight back from other members' marginal gains.
    selected.push_back(chosen);
    state.in_pool[chosen] = 0;
    state.alive.Clear(chosen);
    --pool_left;
    const auto adjacent = groups.groups_of(chosen);
    kernels::PrefetchRange(adjacent.data(), adjacent.size() * sizeof(GroupId));
    for (GroupId g : adjacent) {
      const std::uint8_t tier = tiers[g];
      if (tier >= kIgnoredTier || state.group_dead[g]) continue;
      if (--state.remaining[g] > 0) continue;
      state.group_dead[g] = 1;
      ++stats.retired_groups;
      double* gains = tier == 0 ? state.gain0.data() : state.gain1.data();
      stats.retired_links += kernels::RetireSpan(
          groups.members(g), state.in_pool.data(), gains, weights[g]);
    }
    ++stats.rounds;
  }
  if (zero_gain_tail) {
    stats.tail_users = AppendZeroGainTail(state.alive, tie_rank,
                                          budget - selected.size(), selected);
    stats.rounds += stats.tail_users;
  }
  stats.Publish(*phase);
  return selected;
}

Result<Selection> GreedySelector::Select(
    const DiversificationInstance& instance, std::size_t budget) const {
  obs::Span select_span("greedy.select");
  // "greedy.setup" covers everything before the algorithm proper: option
  // validation, candidate-pool materialization, tie-break ranks, weight
  // perturbation. Closed right before dispatching to the run loop so the
  // bench harness can separate setup from selection cost.
  std::optional<obs::Span> setup_span;
  setup_span.emplace("greedy.setup");
  const std::size_t num_users = instance.repository().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (!options_.group_tiers.empty() &&
      options_.group_tiers.size() != num_groups) {
    return Status::InvalidArgument(
        "group_tiers must have one entry per group");
  }

  // Candidate pool: full population unless restricted (Def. 6.3's 𝒰').
  // Duplicate entries are dropped (first occurrence wins): a repeated user
  // would otherwise accumulate its Line-2 gain twice, and the parallel
  // init relies on pool users being distinct.
  std::vector<UserId> pool = options_.candidate_pool;
  if (pool.empty()) {
    pool.resize(num_users);
    for (UserId u = 0; u < num_users; ++u) pool[u] = u;
  } else {
    std::vector<std::uint8_t> seen(num_users, 0);
    std::size_t kept = 0;
    for (UserId u : pool) {
      if (u >= num_users) {
        return Status::OutOfRange("candidate pool user id out of range");
      }
      if (seen[u]) continue;
      seen[u] = 1;
      pool[kept++] = u;
    }
    pool.resize(kept);
  }

  // Tie-break ranks: position in tie_break_order, else a seeded random
  // permutation (the prototype's behaviour), else ascending id.
  // Both argmax loops need a strict total order: the ranks must be distinct.
  std::vector<std::uint32_t> tie_rank(num_users);
  if (options_.tie_break_order.empty()) {
    for (UserId u = 0; u < num_users; ++u) tie_rank[u] = u;
    if (options_.random_tie_seed.has_value()) {
      util::Rng tie_rng(*options_.random_tie_seed);
      tie_rng.Shuffle(tie_rank);
    }
  } else {
    if (options_.tie_break_order.size() != num_users) {
      return Status::InvalidArgument(
          "tie_break_order must be a permutation of all users");
    }
    std::vector<std::uint8_t> placed(num_users, 0);
    for (std::uint32_t pos = 0; pos < num_users; ++pos) {
      const UserId u = options_.tie_break_order[pos];
      if (u >= num_users) {
        return Status::OutOfRange("tie_break_order user id out of range");
      }
      if (placed[u]) {
        return Status::InvalidArgument(
            "tie_break_order must be a permutation of all users");
      }
      placed[u] = 1;
      tie_rank[u] = pos;
    }
  }
  // Negated so that NaN fails too.
  if (!(options_.weight_noise >= 0.0 && options_.weight_noise < 1.0)) {
    return Status::InvalidArgument("weight_noise must be in [0, 1)");
  }

  if (instance.weight_kind() == WeightKind::kEbs) {
    if (!options_.group_tiers.empty()) {
      return Status::Unimplemented(
          "customized selection is not supported with EBS weights");
    }
    setup_span.reset();
    return RunEbsGreedy(instance, budget, pool, tie_rank);
  }

  std::vector<std::uint8_t> tiers = options_.group_tiers;
  if (tiers.empty()) tiers.assign(num_groups, 0);

  // Optional weight randomization (Section 10): perturb each group weight
  // multiplicatively; the reported selection score stays under the true
  // weights (TotalScore), only the greedy's preferences are perturbed.
  std::vector<double> weights(instance.weights().scalars());
  if (options_.weight_noise > 0.0) {
    util::Rng noise_rng(options_.weight_noise_seed);
    for (double& weight : weights) {
      weight *= 1.0 + options_.weight_noise * noise_rng.NextDouble(-1.0, 1.0);
    }
  }
  setup_span.reset();
  Selection selection;
  selection.users = RunScalarGreedy(instance.groups(), instance.coverage(),
                                    weights, tiers, tie_rank, pool, budget);
  obs::Span score_span("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

}  // namespace podium
