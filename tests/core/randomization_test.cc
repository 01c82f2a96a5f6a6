// Tests for the randomization extensions of Section 10: randomized
// tie-breaking and multiplicative weight noise.

#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "podium/core/greedy.h"
#include "podium/core/score.h"
#include "podium/util/rng.h"
#include "tests/testing/table2.h"

namespace podium {
namespace {

ProfileRepository ManyTiedUsers(std::size_t n) {
  // n users, each the sole member of one singleton group: every marginal
  // gain ties, so the tie-break fully determines the selection.
  ProfileRepository repo;
  for (std::size_t i = 0; i < n; ++i) {
    const UserId u = repo.AddUser("u" + std::to_string(i)).value();
    EXPECT_TRUE(repo.SetScore(u, "p" + std::to_string(i), 1.0,
                              PropertyKind::kBoolean)
                    .ok());
  }
  return repo;
}

TEST(RandomTieBreakTest, SeededShuffleChangesSelection) {
  const ProfileRepository repo = ManyTiedUsers(30);
  InstanceOptions options;
  options.budget = 5;
  const DiversificationInstance instance =
      DiversificationInstance::Build(repo, options).value();

  std::set<std::vector<UserId>> distinct;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GreedyOptions greedy;
    greedy.random_tie_seed = seed;
    Result<Selection> selection =
        GreedySelector(greedy).Select(instance, 5);
    ASSERT_TRUE(selection.ok());
    // All-tied instance: every selection has the same score.
    EXPECT_DOUBLE_EQ(selection->score, 5.0);
    std::vector<UserId> sorted = selection->users;
    std::sort(sorted.begin(), sorted.end());
    distinct.insert(sorted);
  }
  EXPECT_GT(distinct.size(), 1u);  // different seeds, different panels
}

TEST(RandomTieBreakTest, SameSeedIsDeterministic) {
  const ProfileRepository repo = ManyTiedUsers(30);
  InstanceOptions options;
  options.budget = 5;
  const DiversificationInstance instance =
      DiversificationInstance::Build(repo, options).value();
  GreedyOptions greedy;
  greedy.random_tie_seed = 99;
  Result<Selection> a = GreedySelector(greedy).Select(instance, 5);
  Result<Selection> b = GreedySelector(greedy).Select(instance, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->users, b->users);
}

TEST(RandomTieBreakTest, ExplicitOrderWinsOverSeed) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo,
                                          testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 1);
  ASSERT_TRUE(instance.ok());
  GreedyOptions greedy;
  greedy.tie_break_order = {repo.FindUser("Eve"), repo.FindUser("Alice"),
                            repo.FindUser("Bob"), repo.FindUser("Carol"),
                            repo.FindUser("David")};
  greedy.random_tie_seed = 7;  // ignored: explicit order present
  Result<Selection> selection =
      GreedySelector(greedy).Select(instance.value(), 1);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(repo.user(selection->users[0]).name(), "Eve");
}

TEST(WeightNoiseTest, ZeroNoiseMatchesBaseSelection) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo,
                                          testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedyOptions noisy;
  noisy.weight_noise = 0.0;
  Result<Selection> a = GreedySelector().Select(instance.value(), 2);
  Result<Selection> b = GreedySelector(noisy).Select(instance.value(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->users, b->users);
}

TEST(WeightNoiseTest, NoiseDiversifiesOutputAcrossSeeds) {
  util::Rng rng(31);
  ProfileRepository repo;
  for (std::size_t i = 0; i < 40; ++i) {
    const UserId u = repo.AddUser("u" + std::to_string(i)).value();
    for (int p = 0; p < 10; ++p) {
      if (rng.NextBernoulli(0.5)) {
        ASSERT_TRUE(repo.SetScore(u, "prop" + std::to_string(p),
                                  rng.NextDouble())
                        .ok());
      }
    }
  }
  InstanceOptions options;
  options.budget = 6;
  const DiversificationInstance instance =
      DiversificationInstance::Build(repo, options).value();

  const Selection base = GreedySelector().Select(instance, 6).value();
  std::set<std::vector<UserId>> distinct;
  double min_score = base.score;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GreedyOptions noisy;
    noisy.weight_noise = 0.25;
    noisy.weight_noise_seed = seed;
    Result<Selection> selection =
        GreedySelector(noisy).Select(instance, 6);
    ASSERT_TRUE(selection.ok());
    std::vector<UserId> sorted = selection->users;
    std::sort(sorted.begin(), sorted.end());
    distinct.insert(sorted);
    min_score = std::min(min_score, selection->score);
  }
  EXPECT_GT(distinct.size(), 1u);
  // Perturbed panels remain near-optimal under the TRUE weights: within
  // the perturbation factor of the base greedy score.
  EXPECT_GE(min_score, base.score * 0.6);
}

TEST(WeightNoiseTest, ScoreIsAlwaysReportedUnderTrueWeights) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo,
                                          testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedyOptions noisy;
  noisy.weight_noise = 0.3;
  noisy.weight_noise_seed = 5;
  Result<Selection> selection =
      GreedySelector(noisy).Select(instance.value(), 2);
  ASSERT_TRUE(selection.ok());
  EXPECT_DOUBLE_EQ(selection->score,
                   TotalScore(instance.value(), selection->users));
}

TEST(WeightNoiseTest, RejectsInvalidNoise) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Noise must lie in [0, 1) under every weight kind; EBS ignores the
  // noise but validates it all the same.
  const std::pair<WeightKind, double> cases[] = {
      {WeightKind::kLbs, 1.0},  {WeightKind::kLbs, -0.1},
      {WeightKind::kLbs, nan},  {WeightKind::kEbs, 1.0},
      {WeightKind::kEbs, 5.0},  {WeightKind::kEbs, -0.1},
      {WeightKind::kEbs, nan},
  };
  for (const auto& [kind, noise] : cases) {
    Result<DiversificationInstance> instance =
        DiversificationInstance::FromGroups(repo,
                                            testing::MakeTable2Groups(repo),
                                            kind, CoverageKind::kSingle, 2);
    ASSERT_TRUE(instance.ok());
    GreedyOptions bad;
    bad.weight_noise = noise;
    EXPECT_EQ(GreedySelector(bad).Select(instance.value(), 2).status().code(),
              StatusCode::kInvalidArgument)
        << WeightKindName(kind) << " weight_noise " << noise;
  }
}

}  // namespace
}  // namespace podium
