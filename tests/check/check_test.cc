#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "podium/check/differential.h"
#include "podium/check/fuzz.h"
#include "podium/check/invariants.h"
#include "podium/check/oracle.h"
#include "podium/core/greedy.h"
#include "podium/core/instance.h"
#include "podium/util/rng.h"
#include "tests/testing/table2.h"

namespace podium::check {
namespace {

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

DiversificationInstance BuildInstance(const ProfileRepository& repo,
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

Selection RunOptimized(const DiversificationInstance& instance,
                       std::size_t budget) {
  Result<Selection> selection = GreedySelector().Select(instance, budget);
  EXPECT_TRUE(selection.ok()) << selection.status();
  return std::move(selection).value();
}

TEST(OracleTest, AdjacencyMatchesCsrOnTable2) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const DiversificationInstance instance =
      BuildInstance(repo, WeightKind::kIden, CoverageKind::kSingle, 2);
  EXPECT_TRUE(CheckAdjacency(instance).ok());
}

TEST(OracleTest, OracleScoreMatchesSingletonWeightSums) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const DiversificationInstance instance =
      BuildInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 2);
  const NestedGroups nested = BuildNestedGroups(instance);
  // A singleton's score is the sum of its groups' weights.
  for (UserId u = 0; u < repo.user_count(); ++u) {
    double expected = 0.0;
    for (const GroupId g : nested.groups_of[u]) {
      expected += instance.weight(g);
    }
    const UserId subset[] = {u};
    EXPECT_EQ(OracleScore(instance, subset), expected);
  }
}

// The greedy's two ways to pick a user — the round loop's argmax scan and,
// once every gain is zero, the tie-rank tail — against the oracle: a short
// budget stays in the scan, budget = user count ends in the tail.
TEST(OracleTest, GreedyAgreesWithBothOptimizedModesOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const ProfileRepository repo = RandomRepository(20, 6, 0.5, rng);
    for (const WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
      for (const CoverageKind cov :
           {CoverageKind::kSingle, CoverageKind::kProp}) {
        const std::size_t budget = 1 + seed % 5;
        const DiversificationInstance instance =
            BuildInstance(repo, weight, cov, budget);
        for (const std::size_t run_budget : {budget, repo.user_count()}) {
          const Result<Selection> oracle = OracleGreedy(instance, run_budget);
          ASSERT_TRUE(oracle.ok()) << oracle.status();
          const Selection optimized = RunOptimized(instance, run_budget);
          EXPECT_EQ(optimized.users, oracle->users)
              << "seed " << seed << " budget " << run_budget;
          EXPECT_EQ(optimized.score, oracle->score);
        }
      }
    }
  }
}

TEST(OracleTest, PoolRestrictsCandidatesAndRejectsOutOfRange) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const DiversificationInstance instance =
      BuildInstance(repo, WeightKind::kIden, CoverageKind::kSingle, 2);
  const Result<Selection> pooled = OracleGreedy(instance, 2, {4, 2, 2});
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  for (const UserId u : pooled->users) {
    EXPECT_TRUE(u == 2 || u == 4);
  }
  EXPECT_FALSE(OracleGreedy(instance, 2, {99}).ok());
}

TEST(InvariantsTest, GreedyOutputPassesAndCorruptionIsFlagged) {
  util::Rng rng(11);
  const ProfileRepository repo = RandomRepository(18, 5, 0.6, rng);
  const DiversificationInstance instance =
      BuildInstance(repo, WeightKind::kLbs, CoverageKind::kProp, 4);
  const Selection selection = RunOptimized(instance, 4);

  EXPECT_TRUE(CheckGreedyRun(instance, selection, 4).ok());

  Selection wrong_score = selection;
  wrong_score.score += 1.0;
  EXPECT_FALSE(CheckGreedyRun(instance, wrong_score, 4).ok());

  Selection duplicated = selection;
  ASSERT_GE(duplicated.users.size(), 2u);
  duplicated.users[1] = duplicated.users[0];
  EXPECT_FALSE(CheckGreedyRun(instance, duplicated, 4).ok());

  // Reversing the selection order breaks the non-increasing-gain
  // invariant whenever the gains were not all equal.
  Selection reversed = selection;
  std::reverse(reversed.users.begin(), reversed.users.end());
  const UserId front[] = {reversed.users.front()};
  const UserId original_front[] = {selection.users.front()};
  if (OracleScore(instance, front) !=
      OracleScore(instance, original_front)) {
    EXPECT_FALSE(CheckGreedyRun(instance, reversed, 4).ok());
  }
}

TEST(InvariantsTest, ApproximationRatioHoldsOnTinyInstances) {
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    util::Rng rng(seed);
    const ProfileRepository repo = RandomRepository(9, 4, 0.6, rng);
    const DiversificationInstance instance =
        BuildInstance(repo, WeightKind::kIden, CoverageKind::kSingle, 3);
    const Selection selection = RunOptimized(instance, 3);
    const InvariantReport report =
        CheckApproximationRatio(instance, selection, 3);
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(DifferentialTest, ShortRunHasNoDivergences) {
  DiffOptions options;
  options.seed = 1;
  options.rounds = 4;
  options.thread_counts = {1, 2};
  options.with_serve = true;
  options.shard_counts = {1, 3};
  const DiffReport report = RunDifferential(options);
  EXPECT_EQ(report.rounds_run, 4);
  EXPECT_TRUE(report.ok())
      << (report.divergences.empty() ? "" : report.divergences.front());
}

TEST(FuzzTest, JsonSmoke) {
  const FuzzReport report = FuzzJson(7, 30);
  EXPECT_EQ(report.iterations, 30);
  EXPECT_TRUE(report.ok())
      << (report.failures.empty() ? "" : report.failures.front());
}

TEST(FuzzTest, HttpSmoke) {
  const FuzzReport report = FuzzHttpRequests(7, 15);
  EXPECT_EQ(report.iterations, 15);
  EXPECT_TRUE(report.ok())
      << (report.failures.empty() ? "" : report.failures.front());
}

}  // namespace
}  // namespace podium::check
