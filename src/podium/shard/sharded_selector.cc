#include "podium/shard/sharded_selector.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/util/stopwatch.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Per-shard gauges stay bounded-cardinality: beyond this many shards the
/// labeled pool-size gauges are skipped (aggregate counters remain).
constexpr std::size_t kMaxLabeledShards = 32;

/// One merge-round candidate: a user from some shard's pool.
struct Candidate {
  UserId global = 0;
  std::uint32_t shard = 0;
  UserId local = 0;
};

}  // namespace

Result<ShardedSelection> ShardedSelector::Select(
    const ShardedSnapshot& snapshot, std::size_t budget) const {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  obs::Span select_span("shard.select");
  const std::size_t k = snapshot.shard_count();

  ShardedSelection result;
  result.pool_sizes.assign(k, 0);
  result.shard_seconds.assign(k, 0.0);

  // Round 1: independent greedy per shard over the shard's instance —
  // which carries the GLOBAL weights/coverage — for a candidate pool of
  // max(pool_factor·B, B) users. Pool ⊇ the shard's budget-B greedy
  // selection because greedy prefixes are selection-consistent.
  const std::size_t pool_budget =
      std::max(snapshot.options().pool_factor * budget, budget);
  obs::TraceContext* trace = obs::CurrentTrace();
  const double fanout_start =
      trace == nullptr ? 0.0 : trace->ElapsedSeconds();
  std::vector<Selection> pools(k);
  std::vector<Status> errors(k);
  util::ParallelFor(
      k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        // Whichever thread runs a shard, its greedy spans stay out of the
        // request trace (they still reach the span histograms); the shard
        // shows up there as one shard.round1 span, recorded below.
        obs::TraceScope no_trace(nullptr);
        for (std::size_t s = begin; s < end; ++s) {
          util::Stopwatch watch;
          const ShardSnapshot& shard = snapshot.shard(s);
          if (shard.user_count() > 0) {
            Result<Selection> pool =
                GreedySelector().Select(shard.instance, pool_budget);
            if (pool.ok()) {
              pools[s] = std::move(pool).value();
            } else {
              errors[s] = pool.status();
            }
          }
          result.shard_seconds[s] = watch.ElapsedSeconds();
        }
      },
      1);
  for (std::size_t s = 0; s < k; ++s) {
    if (!errors[s].ok()) return errors[s];
    result.pool_sizes[s] = pools[s].users.size();
    obs::RecordSpan("shard.round1", fanout_start, result.shard_seconds[s],
                    {{"shard", static_cast<double>(s)},
                     {"pool", static_cast<double>(result.pool_sizes[s])}});
  }

  // Union the pools, sorted by ascending global id: a candidate's
  // position in the union is its tie rank, so ties go to the lowest global
  // id, as in the single-snapshot greedy.
  std::vector<Candidate> candidates;
  for (std::size_t s = 0; s < k; ++s) {
    const ShardSnapshot& shard = snapshot.shard(s);
    for (UserId local : pools[s].users) {
      candidates.push_back(Candidate{shard.global_ids[local],
                                     static_cast<std::uint32_t>(s), local});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global < b.global;
            });
  result.candidate_count = candidates.size();

  // Round 2: the core greedy over the union, against the global
  // weights/coverage. The union gets its own index whose user ids are
  // candidate positions; each candidate's groups come from its shard-local
  // CSR, whose group ids ARE the global ids. The merge reads adjacency
  // only, so the group definitions stay default.
  {
    obs::Span merge_span("shard.merge");
    const std::size_t n = candidates.size();
    const std::size_t num_groups = snapshot.group_count();
    std::vector<std::vector<UserId>> members(num_groups);
    for (std::size_t i = 0; i < n; ++i) {
      const ShardSnapshot& shard = snapshot.shard(candidates[i].shard);
      for (GroupId g : shard.instance.groups().groups_of(candidates[i].local)) {
        members[g].push_back(static_cast<UserId>(i));
      }
    }
    Result<GroupIndex> index = GroupIndex::FromMembership(
        std::vector<GroupDef>(num_groups), members, n);
    if (!index.ok()) return index.status();
    std::vector<UserId> positions(n);
    std::iota(positions.begin(), positions.end(), UserId{0});
    const std::vector<std::uint8_t> tiers(num_groups, 0);
    std::vector<UserId> picks;
    {
      // As in round 1, the greedy's own spans stay out of the request
      // trace; the merge shows up there as shard.merge.
      obs::TraceScope no_trace(nullptr);
      picks = RunScalarGreedy(index.value(), snapshot.coverage(),
                              snapshot.weights(), tiers, positions, positions,
                              budget);
    }

    // Global score, summed in ascending group order — the same integer
    // TotalScore computes over the unsharded instance for this set.
    const std::vector<std::uint32_t>& coverage = snapshot.coverage();
    const std::vector<double>& weights = snapshot.weights();
    std::vector<std::uint32_t> selected_per_group(num_groups, 0);
    result.merged.users.reserve(picks.size());
    for (UserId i : picks) {
      result.merged.users.push_back(candidates[i].global);
      for (GroupId g : index->groups_of(i)) ++selected_per_group[g];
    }
    double score = 0.0;
    for (GroupId g = 0; g < num_groups; ++g) {
      score += weights[g] *
               static_cast<double>(std::min(selected_per_group[g],
                                            coverage[g]));
    }
    result.merged.score = score;
    result.merge_seconds = merge_span.ElapsedSeconds();
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("shard.selects").Add();
  registry.counter("shard.merge_candidates")
      .Add(static_cast<std::uint64_t>(result.candidate_count));
  if (k <= kMaxLabeledShards) {
    for (std::size_t s = 0; s < k; ++s) {
      registry.gauge("shard.pool_users{shard=\"" + std::to_string(s) + "\"}")
          .Set(static_cast<double>(result.pool_sizes[s]));
    }
  }
  return result;
}

}  // namespace podium::shard
