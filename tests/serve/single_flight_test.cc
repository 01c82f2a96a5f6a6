// Unit tests for SingleFlight: leader/follower coalescing, error sharing,
// and the forget-after-completion lifecycle, deterministic via the join
// hook (no sleeps on the success paths).

#include "podium/serve/single_flight.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/obs/metrics.h"
#include "podium/util/mutex.h"

namespace podium::serve {
namespace {

class SingleFlightTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().Reset(); }

  static std::uint64_t Counter(const char* name) {
    return obs::MetricsRegistry::Global().counter(name).Value();
  }
};

TEST_F(SingleFlightTest, ConcurrentIdenticalKeysComputeOnce) {
  constexpr std::size_t kFollowers = 3;
  SingleFlight flight;
  std::atomic<std::size_t> joined{0};
  flight.set_join_hook([&joined] { ++joined; });

  std::atomic<int> computes{0};
  util::Mutex mutex{"test.single_flight"};
  util::CondVar everyone_in;
  // Large enough to live on the heap, so followers get copies of the
  // leader's buffer rather than a short inline string.
  std::string expected(std::size_t{1} << 20, 'x');
  for (std::size_t i = 0; i < expected.size(); i += 4096) {
    expected[i] = static_cast<char>('a' + i % 26);
  }

  // The leader's compute parks until all followers have joined, proving
  // they coalesced rather than raced past a finished flight.
  std::vector<std::thread> threads;
  std::vector<SingleFlight::Outcome> outcomes(kFollowers + 1);
  threads.reserve(kFollowers + 1);
  for (std::size_t t = 0; t < kFollowers + 1; ++t) {
    threads.emplace_back([&, t] {
      outcomes[t] = flight.Do("key", [&]() -> Result<std::string> {
        ++computes;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (joined.load() < kFollowers &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return expected;
      });
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1);
  std::size_t shared = 0;
  for (const SingleFlight::Outcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    EXPECT_EQ(outcome.value, expected);
    if (outcome.shared) ++shared;
  }
  EXPECT_EQ(shared, kFollowers);
  EXPECT_EQ(Counter("serve.singleflight.leader"), 1u);
  EXPECT_EQ(Counter("serve.singleflight.shared"), kFollowers);
}

TEST_F(SingleFlightTest, FollowersShareTheLeaderError) {
  SingleFlight flight;
  std::atomic<std::size_t> joined{0};
  flight.set_join_hook([&joined] { ++joined; });

  // Rendezvous: the follower calls Do only once the leader's compute is
  // running (flight registered), and the leader finishes only once the
  // follower has joined — the coalescing is forced, not timing-dependent.
  std::atomic<bool> leader_running{false};
  SingleFlight::Outcome leader_outcome;
  SingleFlight::Outcome follower_outcome;
  std::thread leader([&] {
    leader_outcome = flight.Do("key", [&]() -> Result<std::string> {
      leader_running = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (joined.load() < 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::NotFound("no such label");
    });
  });
  std::thread follower([&] {
    while (!leader_running.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    follower_outcome = flight.Do("key", [&]() -> Result<std::string> {
      ADD_FAILURE() << "follower must not compute";
      return std::string("computed-fresh");
    });
  });
  leader.join();
  follower.join();

  EXPECT_EQ(leader_outcome.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(leader_outcome.shared);
  EXPECT_TRUE(follower_outcome.shared);
  EXPECT_EQ(follower_outcome.status.code(), StatusCode::kNotFound);
}

TEST_F(SingleFlightTest, CompletedFlightsAreForgotten) {
  SingleFlight flight;
  int computes = 0;
  for (int i = 0; i < 3; ++i) {
    SingleFlight::Outcome outcome =
        flight.Do("key", [&computes]() -> Result<std::string> {
          ++computes;
          return std::string("v");
        });
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_FALSE(outcome.shared);
  }
  // Sequential calls never coalesce: each one computes fresh.
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(Counter("serve.singleflight.leader"), 3u);
  EXPECT_EQ(Counter("serve.singleflight.shared"), 0u);
}

TEST_F(SingleFlightTest, ALeaderAloneGetsItsOwnBufferBack) {
  // With no follower joined, the leader's result is moved, not copied: the
  // bytes come back in the very buffer compute() allocated.
  SingleFlight flight;
  const char* allocated = nullptr;
  SingleFlight::Outcome outcome =
      flight.Do("key", [&allocated]() -> Result<std::string> {
        std::string body(std::size_t{1} << 20, 'x');
        allocated = body.data();
        return body;
      });
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_FALSE(outcome.shared);
  EXPECT_EQ(outcome.value.size(), std::size_t{1} << 20);
  EXPECT_EQ(outcome.value.data(), allocated);
}

TEST_F(SingleFlightTest, DistinctKeysDoNotCoalesce) {
  SingleFlight flight;
  SingleFlight::Outcome a =
      flight.Do("a", [] { return Result<std::string>(std::string("A")); });
  SingleFlight::Outcome b =
      flight.Do("b", [] { return Result<std::string>(std::string("B")); });
  EXPECT_EQ(a.value, "A");
  EXPECT_EQ(b.value, "B");
  EXPECT_FALSE(a.shared);
  EXPECT_FALSE(b.shared);
}

}  // namespace
}  // namespace podium::serve
