#include "podium/util/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace podium::util {
namespace {

/// Restores the configured global thread count on scope exit so tests can
/// resize the pool freely.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::size_t count) {
    ThreadPool::SetGlobalThreadCount(count);
  }
  ~ScopedThreadCount() { ThreadPool::SetGlobalThreadCount(0); }
};

TEST(ChunkPlanTest, CoversRangeExactlyOnce) {
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 4096u, 100000u}) {
    for (std::size_t grain : {1u, 7u, 256u, 5000u}) {
      const ChunkPlan plan = PlanChunks(n, grain);
      ASSERT_GE(plan.num_chunks, 1u);
      ASSERT_LE(plan.num_chunks, kMaxChunks);
      std::size_t covered = 0;
      for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
        const std::size_t begin = plan.ChunkBegin(chunk);
        const std::size_t end = plan.ChunkEnd(chunk, n);
        ASSERT_EQ(begin, covered);
        ASSERT_GT(end, begin);
        covered = end;
      }
      ASSERT_EQ(covered, n);
    }
  }
}

TEST(ChunkPlanTest, IndependentOfThreadCount) {
  // The determinism contract: the decomposition is a pure function of
  // (n, grain) — resizing the pool must not change it.
  const ChunkPlan before = PlanChunks(10000, 64);
  ScopedThreadCount threads(7);
  const ChunkPlan after = PlanChunks(10000, 64);
  EXPECT_EQ(before.chunk_size, after.chunk_size);
  EXPECT_EQ(before.num_chunks, after.num_chunks);
}

TEST(ThreadPoolTest, ZeroSizeRangeRunsNothing) {
  ScopedThreadCount threads(4);
  std::atomic<int> calls{0};
  ParallelFor(0, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexOnce) {
  ScopedThreadCount threads(4);
  std::vector<std::atomic<int>> visits(10000);
  ParallelFor(visits.size(),
              [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i) ++visits[i];
              });
  for (const auto& count : visits) ASSERT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ChunkResultsCombineDeterministically) {
  // Per-chunk partial results combined in chunk order must match the
  // serial sum regardless of pool size.
  std::vector<double> values(50000);
  std::iota(values.begin(), values.end(), 0.0);
  double expected = 0.0;
  for (double v : values) expected += v;

  for (std::size_t threads : {1u, 2u, 8u}) {
    ScopedThreadCount scoped(threads);
    const ChunkPlan plan = PlanChunks(values.size(), 1);
    std::vector<double> partial(plan.num_chunks, 0.0);
    ParallelFor(values.size(),
                [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                  double sum = 0.0;
                  for (std::size_t i = begin; i < end; ++i) sum += values[i];
                  partial[chunk] = sum;
                });
    double total = 0.0;
    for (double sum : partial) total += sum;
    EXPECT_EQ(total, expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ScopedThreadCount threads(4);
  EXPECT_THROW(
      ParallelFor(1000,
                  [&](std::size_t begin, std::size_t, std::size_t) {
                    if (begin == 0) throw std::runtime_error("chunk failure");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, LowestChunkExceptionWins) {
  ScopedThreadCount threads(4);
  try {
    ParallelFor(1000, [&](std::size_t, std::size_t, std::size_t chunk) {
      throw std::runtime_error("chunk " + std::to_string(chunk));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk 0");
  }
}

TEST(ThreadPoolTest, NestedParallelForFallsBackToSerial) {
  ScopedThreadCount threads(4);
  std::atomic<bool> saw_nested_parallel{false};
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(4, [&](std::size_t begin, std::size_t end, std::size_t) {
    EXPECT_TRUE(InParallelRegion());
    for (std::size_t outer = begin; outer < end; ++outer) {
      ParallelFor(visits.size(),
                  [&](std::size_t inner_begin, std::size_t inner_end,
                      std::size_t) {
                    if (InParallelRegion()) {
                      // Still flagged: the nested loop ran inline.
                    } else {
                      saw_nested_parallel = true;
                    }
                    for (std::size_t i = inner_begin; i < inner_end; ++i) {
                      ++visits[i];
                    }
                  });
    }
  });
  EXPECT_FALSE(saw_nested_parallel.load());
  EXPECT_FALSE(InParallelRegion());
  for (const auto& count : visits) ASSERT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ScopedThreadCount threads(1);
  EXPECT_EQ(ThreadPool::GlobalThreadCount(), 1u);
  std::vector<int> visits(100, 0);  // plain ints: no concurrency at 1 thread
  ParallelFor(visits.size(),
              [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i) ++visits[i];
              });
  for (int count : visits) ASSERT_EQ(count, 1);
}

TEST(ThreadPoolTest, BackToBackLoopsReuseThePool) {
  // Successive jobs can reuse the same stack slot; the generation counter
  // must hand each one to the workers exactly once.
  ScopedThreadCount threads(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> total{0};
    ParallelFor(256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
                  total += end - begin;
                });
    ASSERT_EQ(total.load(), 256u);
  }
}

TEST(ThreadPoolTest, SetGlobalThreadCountResizesPool) {
  ScopedThreadCount threads(3);
  EXPECT_EQ(ThreadPool::GlobalThreadCount(), 3u);
  ThreadPool::SetGlobalThreadCount(5);
  EXPECT_EQ(ThreadPool::GlobalThreadCount(), 5u);
}

}  // namespace
}  // namespace podium::util
