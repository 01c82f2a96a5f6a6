#include "podium/serve/result_cache.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/obs/metrics.h"

namespace podium::serve {
namespace {

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().Reset(); }

  std::uint64_t Hits() {
    return obs::MetricsRegistry::Global().counter("serve.cache.hits").Value();
  }
  std::uint64_t Misses() {
    return obs::MetricsRegistry::Global()
        .counter("serve.cache.misses")
        .Value();
  }
};

TEST_F(ResultCacheTest, GetAfterPutHits) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", "body-a");
  const std::optional<std::string> body = cache.Get("a");
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "body-a");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(Misses(), 1u);
}

TEST_F(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Put("a", "A");
  cache.Put("b", "B");
  cache.Put("c", "C");  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST_F(ResultCacheTest, GetRefreshesRecency) {
  ResultCache cache(2);
  cache.Put("a", "A");
  cache.Put("b", "B");
  EXPECT_TRUE(cache.Get("a").has_value());  // "b" is now the LRU entry
  cache.Put("c", "C");
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
}

TEST_F(ResultCacheTest, PutRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.Put("a", "old");
  cache.Put("b", "B");
  cache.Put("a", "new");  // refresh, not insert: "b" stays resident
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Get("a"), "new");
  EXPECT_TRUE(cache.Get("b").has_value());
}

TEST_F(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Put("a", "A");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(Misses(), 1u);
}

TEST_F(ResultCacheTest, CapacityOneInterleavedGetPut) {
  ResultCache cache(1);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", "A");
  EXPECT_EQ(*cache.Get("a"), "A");
  cache.Put("b", "B");  // evicts "a", the only resident entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(*cache.Get("b"), "B");
  cache.Put("a", "A2");
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(*cache.Get("a"), "A2");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(Hits(), 3u);
  EXPECT_EQ(Misses(), 3u);
}

TEST_F(ResultCacheTest, RepeatedPutOfSameKeyAtCapacityDoesNotEvict) {
  ResultCache cache(2);
  cache.Put("a", "A");
  cache.Put("b", "B");
  for (int i = 0; i < 5; ++i) {
    cache.Put("a", "A" + std::to_string(i));  // refresh in place
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.Get("b").has_value());
  }
  EXPECT_EQ(*cache.Get("a"), "A4");
}

TEST_F(ResultCacheTest, ConcurrentHitMissCountersAreExact) {
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 500;
  ResultCache cache(4);
  cache.Put("resident", "R");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      // Even threads only hit the resident key; odd threads only miss.
      const std::string key = t % 2 == 0 ? "resident"
                                         : "absent-" + std::to_string(t);
      for (int i = 0; i < kGetsPerThread; ++i) {
        const std::optional<std::string> body = cache.Get(key);
        EXPECT_EQ(body.has_value(), t % 2 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Hits(), (kThreads / 2) * kGetsPerThread);
  EXPECT_EQ(Misses(), (kThreads / 2) * kGetsPerThread);
}

TEST_F(ResultCacheTest, ConcurrentMixedUseKeepsInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  ResultCache cache(16);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key-" + std::to_string((t * 7 + i) % 32);
        if (i % 3 == 0) {
          cache.Put(key, "value-" + key);
        } else if (std::optional<std::string> body = cache.Get(key);
                   body.has_value()) {
          // A hit must always carry the value its key was stored with.
          EXPECT_EQ(*body, "value-" + key);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 16u);
  // Every Get recorded exactly one hit or miss.
  const std::uint64_t gets_per_thread =
      kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(Hits() + Misses(), kThreads * gets_per_thread);
}

}  // namespace
}  // namespace podium::serve
