#include "podium/bucketing/bucketizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "podium/util/rng.h"

namespace podium::bucketing {
namespace {

std::vector<Bucket> MustSplit(const Bucketizer& bucketizer,
                              std::vector<double> values, int max_buckets) {
  Result<std::vector<Bucket>> result =
      bucketizer.Split(std::move(values), max_buckets);
  EXPECT_TRUE(result.ok()) << bucketizer.Name() << ": " << result.status();
  return result.ok() ? std::move(result).value() : std::vector<Bucket>{};
}

// ---------------------------------------------------------------------------
// Properties every bucketizer must satisfy, swept over methods and inputs.
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* method;
  int max_buckets;
  std::uint64_t seed;
};

// Without a printer gtest names each case by its raw bytes, one of which
// comes from the method pointer and moves with ASLR and the link layout;
// ctest then registers different names from one build to the next.
void PrintTo(const SweepCase& param, std::ostream* os) {
  *os << param.method << " k=" << param.max_buckets << " seed=" << param.seed;
}

class BucketizerPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BucketizerPropertyTest, ProducesValidPartition) {
  const SweepCase& param = GetParam();
  Result<std::unique_ptr<Bucketizer>> bucketizer =
      MakeBucketizer(param.method);
  ASSERT_TRUE(bucketizer.ok());

  util::Rng rng(param.seed);
  std::vector<double> values;
  // Mixture data: two humps plus uniform noise and boundary values.
  for (int i = 0; i < 200; ++i) {
    const double pick = rng.NextDouble();
    double v;
    if (pick < 0.4) {
      v = rng.NextGaussian(0.2, 0.06);
    } else if (pick < 0.8) {
      v = rng.NextGaussian(0.8, 0.06);
    } else {
      v = rng.NextDouble();
    }
    values.push_back(std::clamp(v, 0.0, 1.0));
  }
  values.push_back(0.0);
  values.push_back(1.0);

  const std::vector<Bucket> buckets =
      MustSplit(*bucketizer.value(), values, param.max_buckets);

  // 1..max_buckets buckets.
  ASSERT_GE(buckets.size(), 1u);
  EXPECT_LE(buckets.size(), static_cast<std::size_t>(param.max_buckets));

  // A contiguous partition of [0, 1]: starts at 0, ends closed at 1,
  // adjacent buckets touch.
  EXPECT_DOUBLE_EQ(buckets.front().lo, 0.0);
  EXPECT_DOUBLE_EQ(buckets.back().hi, 1.0);
  EXPECT_TRUE(buckets.back().hi_closed);
  for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(buckets[i].hi, buckets[i + 1].lo);
    EXPECT_FALSE(buckets[i].hi_closed);
    EXPECT_LT(buckets[i].lo, buckets[i].hi);
  }

  // Every input value falls in exactly one bucket.
  for (double v : values) {
    int hits = 0;
    for (const Bucket& bucket : buckets) {
      if (bucket.Contains(v)) ++hits;
    }
    EXPECT_EQ(hits, 1) << param.method << " value " << v;
  }

  // Labels attached.
  for (const Bucket& bucket : buckets) EXPECT_FALSE(bucket.label.empty());
}

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  for (const char* method :
       {"equal-width", "quantile", "kmeans-1d", "jenks", "kde"}) {
    for (int k : {1, 2, 3, 5, 8}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        cases.push_back(SweepCase{method, k, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, BucketizerPropertyTest, ::testing::ValuesIn(AllSweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.method;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_k" + std::to_string(info.param.max_buckets) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Degenerate inputs.
// ---------------------------------------------------------------------------

class BucketizerDegenerateTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BucketizerDegenerateTest, EmptyInputGivesSingleBucket) {
  auto bucketizer = MakeBucketizer(GetParam()).value();
  const auto buckets = MustSplit(*bucketizer, {}, 3);
  // equal-width is data-independent by design; every data-driven method
  // collapses to a single bucket when there is nothing to split.
  if (std::string(GetParam()) != "equal-width") {
    EXPECT_EQ(buckets.size(), 1u);
  } else {
    EXPECT_EQ(buckets.size(), 3u);
  }
}

TEST_P(BucketizerDegenerateTest, ConstantInputGivesSingleBucket) {
  auto bucketizer = MakeBucketizer(GetParam()).value();
  const auto buckets = MustSplit(*bucketizer, std::vector<double>(50, 0.5), 4);
  // equal-width splits regardless of data (it is data-independent); all
  // data-driven methods must collapse to one bucket.
  if (std::string(GetParam()) != "equal-width") {
    EXPECT_EQ(buckets.size(), 1u);
  }
}

TEST_P(BucketizerDegenerateTest, RejectsInvalidInput) {
  auto bucketizer = MakeBucketizer(GetParam()).value();
  EXPECT_FALSE(bucketizer->Split({0.5}, 0).ok());       // k < 1
  EXPECT_FALSE(bucketizer->Split({1.5}, 3).ok());       // out of range
  EXPECT_FALSE(bucketizer->Split({-0.1}, 3).ok());      // out of range
  EXPECT_FALSE(
      bucketizer->Split({std::numeric_limits<double>::quiet_NaN()}, 3).ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, BucketizerDegenerateTest,
                         ::testing::Values("equal-width", "quantile",
                                           "kmeans-1d", "jenks", "kde"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Method-specific behaviour.
// ---------------------------------------------------------------------------

TEST(EqualWidthTest, SplitsAtFixedFractions) {
  EqualWidthBucketizer bucketizer;
  const auto buckets = MustSplit(bucketizer, {0.1, 0.9}, 4);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].hi, 0.25);
  EXPECT_DOUBLE_EQ(buckets[1].hi, 0.5);
  EXPECT_DOUBLE_EQ(buckets[2].hi, 0.75);
}

TEST(QuantileTest, BalancesCounts) {
  util::Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    // Heavily skewed data: most values near 0.
    values.push_back(std::pow(rng.NextDouble(), 3.0));
  }
  QuantileBucketizer bucketizer;
  const auto buckets = MustSplit(bucketizer, values, 3);
  ASSERT_EQ(buckets.size(), 3u);
  std::vector<int> counts(3, 0);
  for (double v : values) ++counts[static_cast<std::size_t>(
      FindBucket(buckets, v))];
  for (int c : counts) EXPECT_NEAR(c, 1000, 100);
}

TEST(QuantileTest, CollapsesDuplicateQuantiles) {
  // 90% zeros: the 1/3 and 2/3 quantiles coincide at 0.
  std::vector<double> values(900, 0.0);
  for (int i = 0; i < 100; ++i) values.push_back(0.9);
  QuantileBucketizer bucketizer;
  const auto buckets = MustSplit(bucketizer, values, 3);
  EXPECT_LT(buckets.size(), 3u);
}

// Both clustering methods must find the obvious valley in well-separated
// bimodal data.
class ValleyFindingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ValleyFindingTest, SplitsBimodalDataAtTheGap) {
  util::Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back(std::clamp(rng.NextGaussian(0.15, 0.04), 0.0, 1.0));
    values.push_back(std::clamp(rng.NextGaussian(0.85, 0.04), 0.0, 1.0));
  }
  auto bucketizer = MakeBucketizer(GetParam()).value();
  const auto buckets = MustSplit(*bucketizer, values, 2);
  ASSERT_EQ(buckets.size(), 2u);
  // The breakpoint must land in the empty middle band.
  EXPECT_GT(buckets[0].hi, 0.3);
  EXPECT_LT(buckets[0].hi, 0.7);
}

INSTANTIATE_TEST_SUITE_P(Methods, ValleyFindingTest,
                         ::testing::Values("kmeans-1d", "jenks", "kde"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

/// Brute-force optimal SSE partition of sorted values into k classes.
double BruteForceBestSse(const std::vector<double>& sorted, int k) {
  const int n = static_cast<int>(sorted.size());
  auto sse = [&](int i, int j) {  // [i, j] inclusive
    double mean = 0.0;
    for (int t = i; t <= j; ++t) mean += sorted[t];
    mean /= (j - i + 1);
    double total = 0.0;
    for (int t = i; t <= j; ++t) {
      total += (sorted[t] - mean) * (sorted[t] - mean);
    }
    return total;
  };
  // DP (exact), small n only.
  std::vector<std::vector<double>> cost(
      k, std::vector<double>(n, std::numeric_limits<double>::infinity()));
  for (int j = 0; j < n; ++j) cost[0][j] = sse(0, j);
  for (int c = 1; c < k; ++c) {
    for (int j = c; j < n; ++j) {
      for (int s = c; s <= j; ++s) {
        cost[c][j] = std::min(cost[c][j], cost[c - 1][s - 1] + sse(s, j));
      }
    }
  }
  return cost[k - 1][n - 1];
}

TEST(JenksTest, MatchesExactOptimumOnSmallInputs) {
  util::Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> values;
    for (int i = 0; i < 24; ++i) values.push_back(rng.NextDouble());
    std::sort(values.begin(), values.end());

    JenksBucketizer bucketizer;
    const auto buckets = MustSplit(bucketizer, values, 3);

    // SSE of the returned partition.
    double achieved = 0.0;
    for (const Bucket& bucket : buckets) {
      std::vector<double> members;
      for (double v : values) {
        if (bucket.Contains(v)) members.push_back(v);
      }
      double mean = 0.0;
      for (double v : members) mean += v;
      if (!members.empty()) mean /= static_cast<double>(members.size());
      for (double v : members) achieved += (v - mean) * (v - mean);
    }
    const double optimal = BruteForceBestSse(values, 3);
    EXPECT_NEAR(achieved, optimal, 1e-9) << "trial " << trial;
  }
}

TEST(KdeTest, UsesFewerBucketsWhenDataHasFewerModes) {
  util::Rng rng(29);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(std::clamp(rng.NextGaussian(0.5, 0.05), 0.0, 1.0));
  }
  KernelDensityBucketizer bucketizer;
  // Unimodal data: even with room for 5 buckets, KDE keeps 1.
  const auto buckets = MustSplit(bucketizer, values, 5);
  EXPECT_EQ(buckets.size(), 1u);
}

TEST(MakeBucketizerTest, RejectsUnknownMethod) {
  EXPECT_FALSE(MakeBucketizer("flat-earth").ok());
}

}  // namespace
}  // namespace podium::bucketing
