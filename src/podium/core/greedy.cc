#include "podium/core/greedy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>

#include "podium/core/kernels.h"
#include "podium/core/score.h"
#include "podium/obs/trace.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/arena.h"
#include "podium/util/bitset.h"
#include "podium/util/rng.h"
#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// One Select() run's data-structure work. The hot loop touches only
/// these locals; Publish() reports the totals once, as attributes of the
/// run's `greedy.rounds` span and, while telemetry is enabled, into the
/// `greedy.*` counters.
struct GreedyRunStats {
  std::uint64_t rounds = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t stale_reinserts = 0;
  std::uint64_t retired_links = 0;
  std::uint64_t retired_groups = 0;

  void Publish(obs::Span& rounds_span) const {
    rounds_span.SetAttribute("rounds", static_cast<double>(rounds));
    rounds_span.SetAttribute("retired_links",
                             static_cast<double>(retired_links));
    rounds_span.SetAttribute("retired_groups",
                             static_cast<double>(retired_groups));
    rounds_span.SetAttribute("heap_pops", static_cast<double>(heap_pops));
    rounds_span.SetAttribute("stale_reinserts",
                             static_cast<double>(stale_reinserts));
    if (!telemetry::Enabled()) return;
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("greedy.runs").Add();
    registry.counter("greedy.rounds").Add(rounds);
    registry.counter("greedy.heap_pops").Add(heap_pops);
    registry.counter("greedy.stale_reinserts").Add(stale_reinserts);
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
bool ExactUnderReassociation(const std::vector<double>& weights) {
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

Selection RunScalarGreedy(const DiversificationInstance& instance,
                          std::size_t budget,
                          const std::vector<UserId>& pool,
                          const std::vector<std::uint8_t>& tiers,
                          const std::vector<std::uint32_t>& tie_rank,
                          const std::vector<double>& weights,
                          GreedyMode mode) {
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = instance.repository().user_count();
  const std::size_t num_groups = groups.group_count();

  // Phase accounting: "greedy.init" covers the marginal-gain/heap setup,
  // "greedy.rounds" the selection loop, "greedy.score" the final scoring.
  std::optional<obs::Span> phase;
  phase.emplace("greedy.init");
  SoaState state(num_users, num_groups);
  std::copy(instance.coverage().begin(), instance.coverage().end(),
            state.remaining.begin());
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
  // tiers contribute an exact +0.0). Pool users are distinct (Select()
  // dedupes), so chunks write disjoint gain slots.
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

  // Lazy heap entries carry the gain they were pushed with; stale entries
  // are re-pushed on pop. Valid because gains only decrease (submodularity).
  struct HeapEntry {
    double gain0;
    double gain1;
    std::uint32_t tie;
    UserId user;
    bool operator<(const HeapEntry& other) const {  // max-heap
      if (gain0 != other.gain0) return gain0 < other.gain0;
      if (gain1 != other.gain1) return gain1 < other.gain1;
      return tie > other.tie;
    }
  };
  // The initial heap is built from a pre-sized entry vector and heapified
  // in one O(n) pass instead of n pushes; pop order is unchanged because
  // (gain, tie_rank) is a strict total order over distinct pool users.
  std::priority_queue<HeapEntry> heap;
  if (mode == GreedyMode::kLazyHeap) {
    std::vector<HeapEntry> entries(pool.size());
    util::ParallelFor(
        pool.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i) {
            const UserId u = pool[i];
            entries[i] =
                HeapEntry{state.gain0[u], state.gain1[u], tie_rank[u], u};
          }
        },
        kPoolGrain);
    heap = std::priority_queue<HeapEntry>(std::less<HeapEntry>(),
                                          std::move(entries));
  }

  phase.emplace("greedy.rounds");
  GreedyRunStats stats;
  Selection selection;
  std::size_t pool_left = pool.size();
  for (std::size_t round = 0; round < budget && pool_left > 0; ++round) {
    // Line 5: maxUser = argmax marg. The bitset walk visits users in
    // ascending id order rather than pool order; the argmax is the same
    // because (gain0, gain1, tie_rank) is a strict total order over
    // distinct pool users — no two compare equal, so the winner does not
    // depend on iteration order.
    UserId chosen = kInvalidUser;
    if (mode == GreedyMode::kPlainScan) {
      state.alive.ForEachSet([&](std::size_t i) {
        const UserId u = static_cast<UserId>(i);
        if (chosen == kInvalidUser || better(u, chosen)) chosen = u;
      });
    } else {
      while (!heap.empty()) {
        HeapEntry top = heap.top();
        heap.pop();
        ++stats.heap_pops;
        if (!state.in_pool[top.user]) continue;
        // Start the candidate's adjacency span on its way to cache while
        // the staleness compare resolves.
        const auto adjacent = groups.groups_of(top.user);
        kernels::PrefetchRange(adjacent.data(),
                               adjacent.size() * sizeof(GroupId));
        if (top.gain0 != state.gain0[top.user] ||
            top.gain1 != state.gain1[top.user]) {
          top.gain0 = state.gain0[top.user];
          top.gain1 = state.gain1[top.user];
          heap.push(top);
          ++stats.stale_reinserts;
          continue;
        }
        chosen = top.user;
        break;
      }
      if (chosen == kInvalidUser) break;  // heap exhausted
    }

    // Lines 6-10: move the user, decrement coverage, retire dead groups
    // and charge their weight back from other members' marginal gains.
    selection.users.push_back(chosen);
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
  stats.Publish(*phase);
  phase.emplace("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

/// EBS gains: the set of ord-ranks of alive groups containing the user,
/// kept sorted descending. Because ord is a permutation and the base B+1
/// is >= 2, numeric comparison of Σ (B+1)^rank coincides with
/// lexicographic comparison of the descending rank sequences (with the
/// longer sequence winning on a tied prefix).
struct EbsGain {
  std::vector<std::uint32_t> ranks;  // descending

  void Remove(std::uint32_t rank) {
    auto it = std::lower_bound(ranks.begin(), ranks.end(), rank,
                               std::greater<std::uint32_t>());
    if (it != ranks.end() && *it == rank) ranks.erase(it);
  }
};

bool EbsBetter(const EbsGain& a, const EbsGain& b) {
  const std::size_t common = std::min(a.ranks.size(), b.ranks.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.ranks[i] != b.ranks[i]) return a.ranks[i] > b.ranks[i];
  }
  return a.ranks.size() > b.ranks.size();
}

Selection RunEbsGreedy(const DiversificationInstance& instance,
                       std::size_t budget, const std::vector<UserId>& pool,
                       const std::vector<std::uint32_t>& tie_rank) {
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = instance.repository().user_count();

  std::optional<obs::Span> phase;
  phase.emplace("greedy.init");
  std::vector<EbsGain> gains(num_users);
  std::vector<std::uint32_t> remaining = instance.coverage();
  std::vector<std::uint8_t> group_dead(groups.group_count(), 0);
  std::vector<std::uint8_t> in_pool(num_users, 0);
  for (UserId u : pool) in_pool[u] = 1;
  // Pool users are distinct (Select() dedupes), so chunks build disjoint
  // rank sets.
  util::ParallelFor(
      pool.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const UserId u = pool[i];
          auto& ranks = gains[u].ranks;
          for (GroupId g : groups.groups_of(u)) {
            ranks.push_back(instance.weights().rank(g));
          }
          std::sort(ranks.begin(), ranks.end(), std::greater<std::uint32_t>());
        }
      },
      kPoolGrain);

  phase.emplace("greedy.rounds");
  GreedyRunStats stats;
  Selection selection;
  std::size_t pool_left = pool.size();
  for (std::size_t round = 0; round < budget && pool_left > 0; ++round) {
    UserId chosen = kInvalidUser;
    for (UserId u : pool) {
      if (!in_pool[u]) continue;
      if (chosen == kInvalidUser || EbsBetter(gains[u], gains[chosen]) ||
          (!EbsBetter(gains[chosen], gains[u]) &&
           tie_rank[u] < tie_rank[chosen])) {
        chosen = u;
      }
    }
    selection.users.push_back(chosen);
    in_pool[chosen] = 0;
    --pool_left;
    for (GroupId g : groups.groups_of(chosen)) {
      if (group_dead[g]) continue;
      if (--remaining[g] > 0) continue;
      group_dead[g] = 1;
      ++stats.retired_groups;
      const std::uint32_t rank = instance.weights().rank(g);
      for (UserId member : groups.members(g)) {
        if (in_pool[member]) {
          gains[member].Remove(rank);
          ++stats.retired_links;
        }
      }
    }
    ++stats.rounds;
  }
  stats.Publish(*phase);
  phase.emplace("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

}  // namespace

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
    for (std::uint32_t pos = 0; pos < num_users; ++pos) {
      const UserId u = options_.tie_break_order[pos];
      if (u >= num_users) {
        return Status::OutOfRange("tie_break_order user id out of range");
      }
      tie_rank[u] = pos;
    }
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
    if (options_.weight_noise >= 1.0) {
      return Status::InvalidArgument("weight_noise must be in [0, 1)");
    }
    util::Rng noise_rng(options_.weight_noise_seed);
    for (double& weight : weights) {
      weight *= 1.0 + options_.weight_noise * noise_rng.NextDouble(-1.0, 1.0);
    }
  }
  setup_span.reset();
  return RunScalarGreedy(instance, budget, pool, tiers, tie_rank, weights,
                         options_.mode);
}

}  // namespace podium
