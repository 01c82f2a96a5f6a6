#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "podium/groups/coverage.h"
#include "podium/groups/weight.h"
#include "podium/util/rng.h"
#include "tests/testing/table2.h"

namespace podium {
namespace {

TEST(WeightTest, IdenIsConstantOne) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const GroupIndex index = testing::MakeTable2Groups(repo);
  const GroupWeighting w = GroupWeighting::Compute(index, WeightKind::kIden);
  for (GroupId g = 0; g < index.group_count(); ++g) {
    EXPECT_DOUBLE_EQ(w.scalar(g), 1.0);
  }
}

TEST(WeightTest, LbsIsGroupSize) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const GroupIndex index = testing::MakeTable2Groups(repo);
  const GroupWeighting w = GroupWeighting::Compute(index, WeightKind::kLbs);
  for (GroupId g = 0; g < index.group_count(); ++g) {
    EXPECT_DOUBLE_EQ(w.scalar(g), static_cast<double>(index.group_size(g)));
  }
}

TEST(WeightTest, EbsRanksArePermutationOrderedBySize) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const GroupIndex index = testing::MakeTable2Groups(repo);
  const GroupWeighting w = GroupWeighting::Compute(index, WeightKind::kEbs,
                                                   /*budget=*/2);
  std::vector<bool> seen(index.group_count(), false);
  for (GroupId g = 0; g < index.group_count(); ++g) {
    const std::uint32_t r = w.rank(g);
    ASSERT_LT(r, index.group_count());
    EXPECT_FALSE(seen[r]) << "rank reused";
    seen[r] = true;
  }
  // Larger groups must have strictly larger ranks than smaller ones.
  for (GroupId a = 0; a < index.group_count(); ++a) {
    for (GroupId b = 0; b < index.group_count(); ++b) {
      if (index.group_size(a) < index.group_size(b)) {
        EXPECT_LT(w.rank(a), w.rank(b));
      }
    }
  }
  // Scalar approximation is (B+1)^rank while it fits.
  for (GroupId g = 0; g < index.group_count(); ++g) {
    EXPECT_DOUBLE_EQ(w.scalar(g), std::pow(3.0, w.rank(g)));
  }
}

// The EBS scalars stop calling pow at the first +inf rank; every value,
// saturated or not, must still be the long-double power bit for bit.
TEST(WeightTest, EbsScalarsAreTheLongDoublePowerBitForBit) {
  util::Rng rng(2020);
  std::vector<std::uint32_t> sizes(1500);
  for (std::uint32_t& size : sizes) {
    size = static_cast<std::uint32_t>(1 + rng.NextBounded(400));  // ties too
  }
  for (std::size_t budget : {0, 4, 64}) {
    const GroupWeighting w =
        GroupWeighting::ComputeFromSizes(sizes, WeightKind::kEbs, budget);
    std::size_t saturated = 0;
    for (GroupId g = 0; g < sizes.size(); ++g) {
      const double expected = static_cast<double>(
          std::pow(static_cast<long double>(budget) + 1.0L,
                   static_cast<long double>(w.rank(g))));
      const double actual = w.scalar(g);
      EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
          << "B=" << budget << " rank " << w.rank(g) << ": " << actual
          << " vs " << expected;
      saturated += std::isinf(actual) ? 1 : 0;
    }
    // B=0 never saturates; B=4 and B=64 do well before rank 1500.
    if (budget == 0) {
      EXPECT_EQ(saturated, 0u);
    } else {
      EXPECT_GT(saturated, sizes.size() / 2) << "B=" << budget;
    }
  }
}

TEST(WeightTest, ParseRoundTrips) {
  for (WeightKind kind :
       {WeightKind::kIden, WeightKind::kLbs, WeightKind::kEbs}) {
    Result<WeightKind> parsed = ParseWeightKind(WeightKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseWeightKind("Bogus").ok());
}

TEST(CoverageTest, SingleIsConstantOne) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const GroupIndex index = testing::MakeTable2Groups(repo);
  const auto cov = ComputeCoverage(index, CoverageKind::kSingle, 3,
                                   repo.user_count());
  for (std::uint32_t c : cov) EXPECT_EQ(c, 1u);
}

TEST(CoverageTest, PropIsProportionalWithFloorOne) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  const GroupIndex index = testing::MakeTable2Groups(repo);
  // Budget 5 over population 5: cov(G) = max(floor(5*|G|/5), 1) = |G|.
  const auto cov =
      ComputeCoverage(index, CoverageKind::kProp, 5, repo.user_count());
  for (GroupId g = 0; g < index.group_count(); ++g) {
    EXPECT_EQ(cov[g], index.group_size(g));
  }
  // Budget 2: cov = max(floor(2|G|/5), 1); sizes 1..3 all map to 1.
  const auto cov2 =
      ComputeCoverage(index, CoverageKind::kProp, 2, repo.user_count());
  for (std::uint32_t c : cov2) EXPECT_EQ(c, 1u);
}

TEST(CoverageTest, ParseRoundTrips) {
  for (CoverageKind kind : {CoverageKind::kSingle, CoverageKind::kProp}) {
    Result<CoverageKind> parsed = ParseCoverageKind(CoverageKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseCoverageKind("Half").ok());
}

}  // namespace
}  // namespace podium
