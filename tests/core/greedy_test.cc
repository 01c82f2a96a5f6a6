#include "podium/core/greedy.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "podium/check/oracle.h"
#include "podium/core/exhaustive.h"
#include "podium/core/score.h"
#include "podium/obs/trace.h"
#include "podium/util/rng.h"
#include "tests/testing/table2.h"

namespace podium {
namespace {

/// Random repository: `users` users, `properties` score properties, each
/// user holding each property with probability `density`.
ProfileRepository RandomRepository(std::size_t users, std::size_t properties,
                                   double density, util::Rng& rng) {
  ProfileRepository repo;
  for (std::size_t u = 0; u < users; ++u) {
    const UserId id = repo.AddUser("u" + std::to_string(u)).value();
    for (std::size_t p = 0; p < properties; ++p) {
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(repo.SetScore(id, "prop" + std::to_string(p),
                                  rng.NextDouble())
                        .ok());
      }
    }
  }
  return repo;
}

DiversificationInstance RandomInstance(const ProfileRepository& repo,
                                       WeightKind weight, CoverageKind cov,
                                       std::size_t budget) {
  InstanceOptions options;
  options.grouping.bucket_method = "equal-width";
  options.grouping.max_buckets = 3;
  options.weight_kind = weight;
  options.coverage_kind = cov;
  options.budget = budget;
  Result<DiversificationInstance> instance =
      DiversificationInstance::Build(repo, options);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(instance).value();
}

// ---------------------------------------------------------------------------
// Score-function properties backing Prop. 4.4 (submodularity, monotonicity),
// checked on random instances.
// ---------------------------------------------------------------------------

struct PropertySweep {
  std::uint64_t seed;
  WeightKind weight;
  CoverageKind coverage;
};

class ScorePropertyTest : public ::testing::TestWithParam<PropertySweep> {};

TEST_P(ScorePropertyTest, ScoreIsMonotoneAndSubmodular) {
  const PropertySweep& param = GetParam();
  util::Rng rng(param.seed);
  const ProfileRepository repo = RandomRepository(24, 8, 0.5, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, param.weight, param.coverage, 5);

  for (int trial = 0; trial < 30; ++trial) {
    // Random nested subsets U ⊆ U' and a user u ∉ U'.
    std::vector<std::size_t> shuffled =
        rng.SampleWithoutReplacement(repo.user_count(), 10);
    const UserId extra = static_cast<UserId>(shuffled.back());
    shuffled.pop_back();
    const std::size_t small_size = rng.NextBounded(shuffled.size());
    std::vector<UserId> small(shuffled.begin(),
                              shuffled.begin() + small_size);
    std::vector<UserId> large(shuffled.begin(), shuffled.end());

    const double score_small = TotalScore(instance, small);
    const double score_large = TotalScore(instance, large);
    EXPECT_LE(score_small, score_large + 1e-9) << "monotonicity";
    EXPECT_GE(score_small, 0.0) << "non-negativity";

    std::vector<UserId> small_plus = small;
    small_plus.push_back(extra);
    std::vector<UserId> large_plus = large;
    large_plus.push_back(extra);
    const double gain_small = TotalScore(instance, small_plus) - score_small;
    const double gain_large = TotalScore(instance, large_plus) - score_large;
    EXPECT_GE(gain_small, gain_large - 1e-9) << "submodularity";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScorePropertyTest,
    ::testing::Values(
        PropertySweep{1, WeightKind::kIden, CoverageKind::kSingle},
        PropertySweep{2, WeightKind::kLbs, CoverageKind::kSingle},
        PropertySweep{3, WeightKind::kLbs, CoverageKind::kProp},
        PropertySweep{4, WeightKind::kIden, CoverageKind::kProp},
        PropertySweep{5, WeightKind::kLbs, CoverageKind::kSingle}),
    [](const auto& info) {
      return std::string(WeightKindName(info.param.weight)) + "_" +
             std::string(CoverageKindName(info.param.coverage)) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Approximation guarantee: greedy >= (1 - 1/e) * optimal on random
// instances small enough for exhaustive search (the paper observes ~0.998
// in practice; we assert the hard bound and track the empirical one).
// ---------------------------------------------------------------------------

class ApproximationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproximationTest, GreedyIsWithinBoundOfOptimal) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(14, 6, 0.45, rng);
  for (WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
    for (CoverageKind cov : {CoverageKind::kSingle, CoverageKind::kProp}) {
      const DiversificationInstance instance =
          RandomInstance(repo, weight, cov, 4);
      GreedySelector greedy;
      ExhaustiveSelector optimal;
      Result<Selection> greedy_result = greedy.Select(instance, 4);
      Result<Selection> optimal_result = optimal.Select(instance, 4);
      ASSERT_TRUE(greedy_result.ok());
      ASSERT_TRUE(optimal_result.ok()) << optimal_result.status();
      constexpr double kBound = 1.0 - 1.0 / M_E;
      EXPECT_GE(greedy_result->score,
                kBound * optimal_result->score - 1e-9)
          << WeightKindName(weight) << "/" << CoverageKindName(cov);
      EXPECT_LE(greedy_result->score, optimal_result->score + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Long budgets end in the zero-gain tail, which must pick exactly what
// Algorithm 1 picks, on the full pool and on a restricted pool with tiers.
// Weight noise leaves float residues in the gains, so it never takes the
// tail.
// ---------------------------------------------------------------------------

/// Runs `options` at `budget` under a fresh request trace; returns the
/// selection and the run's `tail_users` attribute.
std::pair<Selection, double> RunTraced(const DiversificationInstance& instance,
                                       const GreedyOptions& options,
                                       std::size_t budget) {
  obs::TraceContext trace(obs::TraceId::Generate());
  obs::TraceScope scope(&trace);
  Result<Selection> selection = GreedySelector(options).Select(instance, budget);
  EXPECT_TRUE(selection.ok()) << selection.status();
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name != "greedy.rounds") continue;
    for (const obs::SpanAttribute& attribute : span.attributes) {
      if (attribute.key == "tail_users") {
        return {std::move(selection).value(), attribute.value};
      }
    }
  }
  ADD_FAILURE() << "greedy.rounds carries no tail_users attribute";
  return {std::move(selection).value(), -1.0};
}

class ZeroGainTailTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroGainTailTest, BudgetEqualToUserCountMatchesOracle) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(60, 12, 0.4, rng);
  const std::size_t all = repo.user_count();
  for (WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
    for (CoverageKind cov : {CoverageKind::kSingle, CoverageKind::kProp}) {
      const DiversificationInstance instance =
          RandomInstance(repo, weight, cov, 10);
      GreedyOptions restricted;
      for (UserId u = 0; u < all; ++u) {
        if (rng.NextBernoulli(0.6)) restricted.candidate_pool.push_back(u);
      }
      for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
        restricted.group_tiers.push_back(
            static_cast<std::uint8_t>(rng.NextBounded(3)));
      }
      for (const GreedyOptions& options : {GreedyOptions{}, restricted}) {
        const std::string what =
            std::string(WeightKindName(weight)) + "/" +
            std::string(CoverageKindName(cov)) +
            (options.candidate_pool.empty() ? " full pool"
                                            : " restricted pool, tiers");
        const auto [selection, tail_users] =
            RunTraced(instance, options, all);
        Result<Selection> oracle = check::OracleGreedy(
            instance, all, options.candidate_pool, options.group_tiers);
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        EXPECT_EQ(selection.users, oracle->users) << what;
        EXPECT_EQ(selection.score, oracle->score) << what;
        EXPECT_GT(tail_users, 0.0) << what;

        GreedyOptions noisy = options;
        noisy.weight_noise = 0.1;
        noisy.weight_noise_seed = GetParam();
        const auto [noisy_selection, noisy_tail_users] =
            RunTraced(instance, noisy, all);
        EXPECT_EQ(noisy_selection.users.size(), selection.users.size())
            << what;
        EXPECT_EQ(noisy_tail_users, 0.0) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroGainTailTest,
                         ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------------
// EBS correctness: the refinement argmax must match explicit long-double
// exponential weights on instances small enough for those to be exact.
// ---------------------------------------------------------------------------

/// Greedy over explicit (B+1)^rank weights, scored from Def. 3.3 in long
/// double: each round takes the largest gain among the untaken users of
/// `pool`, ties to the smaller `tie_rank`.
std::vector<UserId> ExponentialReference(
    const DiversificationInstance& instance, std::vector<UserId> pool,
    const std::vector<std::uint32_t>& tie_rank, std::size_t budget) {
  const long double base =
      static_cast<long double>(instance.budget()) + 1.0L;
  auto score = [&](const std::vector<UserId>& subset) {
    std::vector<std::uint32_t> count(instance.groups().group_count(), 0);
    for (UserId v : subset) {
      for (GroupId g : instance.groups().groups_of(v)) ++count[g];
    }
    long double total = 0.0L;
    for (GroupId g = 0; g < count.size(); ++g) {
      total += std::pow(base, static_cast<long double>(
                                  instance.weights().rank(g))) *
               std::min(count[g], instance.coverage(g));
    }
    return total;
  };
  // Scanning in tie order and keeping strict improvements breaks ties
  // toward the smaller tie rank.
  std::sort(pool.begin(), pool.end(),
            [&](UserId a, UserId b) { return tie_rank[a] < tie_rank[b]; });
  std::vector<UserId> reference;
  std::vector<bool> chosen(instance.repository().user_count(), false);
  while (reference.size() < budget) {
    UserId best = kInvalidUser;
    long double best_gain = -1.0L;
    for (UserId u : pool) {
      if (chosen[u]) continue;
      std::vector<UserId> with = reference;
      with.push_back(u);
      const long double gain = score(with) - score(reference);
      if (gain > best_gain) {
        best_gain = gain;
        best = u;
      }
    }
    if (best == kInvalidUser) break;  // pool exhausted
    reference.push_back(best);
    chosen[best] = true;
  }
  return reference;
}

class EbsEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EbsEquivalenceTest, TieredGreedyMatchesExplicitExponentialWeights) {
  util::Rng rng(GetParam());
  // Few groups so (B+1)^rank stays representable: 10 users, 3 properties.
  const ProfileRepository repo = RandomRepository(10, 3, 0.6, rng);
  const std::size_t n = repo.user_count();
  std::vector<UserId> everyone(n);
  for (UserId u = 0; u < n; ++u) everyone[u] = u;
  std::vector<UserId> half = everyone;
  rng.Shuffle(half);
  half.resize(n / 2);
  std::vector<std::uint32_t> by_id(n);
  for (UserId u = 0; u < n; ++u) by_id[u] = u;
  // The permutation GreedyOptions::random_tie_seed documents.
  const std::uint64_t tie_seed = GetParam() * 31 + 1;
  std::vector<std::uint32_t> shuffled = by_id;
  util::Rng(tie_seed).Shuffle(shuffled);

  for (CoverageKind cov : {CoverageKind::kSingle, CoverageKind::kProp}) {
    const DiversificationInstance instance =
        RandomInstance(repo, WeightKind::kEbs, cov, 3);
    for (const bool restricted : {false, true}) {
      for (const bool random_ties : {false, true}) {
        // The instance's budget; then more than the pool holds, which
        // runs on after every gain is zero.
        for (const std::size_t budget : {std::size_t{3}, n + 2}) {
          GreedyOptions options;
          if (restricted) options.candidate_pool = half;
          if (random_ties) options.random_tie_seed = tie_seed;
          Result<Selection> selection =
              GreedySelector(options).Select(instance, budget);
          ASSERT_TRUE(selection.ok()) << selection.status();
          const std::vector<UserId> reference = ExponentialReference(
              instance, restricted ? half : everyone,
              random_ties ? shuffled : by_id, budget);
          EXPECT_EQ(selection->users, reference)
              << (cov == CoverageKind::kProp ? "Prop" : "Single")
              << (restricted ? " restricted pool" : " full pool")
              << (random_ties ? " random ties" : " id ties") << " budget "
              << budget;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EbsEquivalenceTest,
                         ::testing::Values(3, 6, 9, 12, 15));

// ---------------------------------------------------------------------------
// Edge cases and options.
// ---------------------------------------------------------------------------

TEST(GreedyEdgeTest, BudgetLargerThanPopulationSelectsEveryone) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 10);
  ASSERT_TRUE(instance.ok());
  GreedySelector selector;
  Result<Selection> selection = selector.Select(instance.value(), 10);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->users.size(), repo.user_count());
}

TEST(GreedyEdgeTest, ZeroBudgetIsRejected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedySelector selector;
  EXPECT_FALSE(selector.Select(instance.value(), 0).ok());
}

TEST(GreedyEdgeTest, CandidatePoolRestrictsSelection) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedyOptions options;
  options.candidate_pool = {repo.FindUser("Bob"), repo.FindUser("Carol")};
  GreedySelector selector(options);
  Result<Selection> selection = selector.Select(instance.value(), 5);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->users.size(), 2u);  // pool exhausted before budget
  for (UserId u : selection->users) {
    EXPECT_TRUE(u == repo.FindUser("Bob") || u == repo.FindUser("Carol"));
  }
}

TEST(GreedyEdgeTest, TieBreakOrderIsRespected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 1);
  ASSERT_TRUE(instance.ok());
  // Alice and Eve tie at 10; prefer Eve via the tie-break permutation.
  GreedyOptions options;
  options.tie_break_order = {repo.FindUser("Eve"), repo.FindUser("Alice"),
                             repo.FindUser("Bob"), repo.FindUser("Carol"),
                             repo.FindUser("David")};
  GreedySelector selector(options);
  Result<Selection> selection = selector.Select(instance.value(), 1);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(repo.user(selection->users[0]).name(), "Eve");
}

TEST(GreedyEdgeTest, InvalidOptionsAreRejected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  // Every weight kind validates the same options the same way.
  for (WeightKind kind : {WeightKind::kLbs, WeightKind::kEbs}) {
    SCOPED_TRACE(std::string(WeightKindName(kind)));
    Result<DiversificationInstance> instance =
        DiversificationInstance::FromGroups(
            repo, testing::MakeTable2Groups(repo), kind,
            CoverageKind::kSingle, 2);
    ASSERT_TRUE(instance.ok());

    GreedyOptions bad_tiers;
    bad_tiers.group_tiers = {0, 1};  // wrong length
    EXPECT_FALSE(GreedySelector(bad_tiers).Select(instance.value(), 2).ok());

    GreedyOptions bad_pool;
    bad_pool.candidate_pool = {999};
    EXPECT_FALSE(GreedySelector(bad_pool).Select(instance.value(), 2).ok());

    GreedyOptions bad_order;
    bad_order.tie_break_order = {0, 1};  // not a full permutation
    EXPECT_FALSE(GreedySelector(bad_order).Select(instance.value(), 2).ok());

    // Right length, but user 4 repeats and user 0 is missing: two users
    // would share a tie rank.
    GreedyOptions duplicate_order;
    duplicate_order.tie_break_order = {4, 4, 3, 2, 1};
    EXPECT_EQ(GreedySelector(duplicate_order)
                  .Select(instance.value(), 2)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(GreedyEdgeTest, PropCoverageRewardsRepeatedRepresentation) {
  // Two groups: a big one (4 users) needing 2 representatives under Prop
  // with B=4, and small singleton groups. Greedy must take two members of
  // the big group before chasing singletons of lower weight.
  ProfileRepository repo;
  for (int i = 0; i < 4; ++i) {
    const UserId u = repo.AddUser("big" + std::to_string(i)).value();
    ASSERT_TRUE(repo.SetScore(u, "big", 1.0, PropertyKind::kBoolean).ok());
  }
  const UserId loner = repo.AddUser("loner").value();
  ASSERT_TRUE(repo.SetScore(loner, "solo", 1.0, PropertyKind::kBoolean).ok());

  InstanceOptions options;
  options.weight_kind = WeightKind::kLbs;
  options.coverage_kind = CoverageKind::kProp;
  options.budget = 3;
  DiversificationInstance instance =
      DiversificationInstance::Build(repo, options).value();
  // cov(big) = max(floor(3*4/5), 1) = 2; wei(big) = 4, wei(solo) = 1.
  GreedySelector selector;
  Result<Selection> selection = selector.Select(instance, 3);
  ASSERT_TRUE(selection.ok());
  int big_members = 0;
  for (UserId u : selection->users) {
    if (repo.user(u).name().substr(0, 3) == "big") ++big_members;
  }
  EXPECT_EQ(big_members, 2);
  EXPECT_DOUBLE_EQ(selection->score, 4.0 * 2.0 + 1.0);
}

}  // namespace
}  // namespace podium
