#include "podium/serve/service.h"

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/json/parser.h"
#include "podium/obs/metrics.h"
#include "tests/testing/table2.h"

namespace podium::serve {
namespace {

std::shared_ptr<const Snapshot> BuildTable2Snapshot(std::uint64_t generation) {
  SnapshotOptions options;
  options.instance.budget = 3;
  Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Build(
      podium::testing::MakeTable2Repository(), options, generation);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return snapshot.ok() ? std::move(snapshot).value() : nullptr;
}

SelectionRequest ParseRequest(std::string_view text) {
  Result<json::Value> document = json::Parse(text);
  EXPECT_TRUE(document.ok()) << document.status();
  Result<SelectionRequest> request =
      SelectionRequestFromJson(document.value());
  EXPECT_TRUE(request.ok()) << request.status();
  return request.ok() ? std::move(request).value() : SelectionRequest{};
}

json::Value ParseBody(const std::string& body) {
  Result<json::Value> document = json::Parse(body);
  EXPECT_TRUE(document.ok()) << document.status() << "\nbody: " << body;
  return document.ok() ? std::move(document).value() : json::Value();
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name).Value();
}

class SelectionServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().Reset(); }
};

TEST_F(SelectionServiceTest, SelectsWithSnapshotDefaults) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  Result<ServiceReply> reply = service.Select(ParseRequest("{}"));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->cache_hit);
  EXPECT_EQ(reply->snapshot_generation, 1u);

  const json::Value body = ParseBody(reply->body);
  // The effective (post-default) configuration is echoed back.
  EXPECT_EQ(body.AsObject().Find("budget")->AsNumber(), 3.0);
  EXPECT_EQ(body.AsObject().Find("selector")->AsString(), "greedy");
  EXPECT_EQ(body.AsObject().Find("weights")->AsString(), "LBS");
  EXPECT_EQ(body.AsObject().Find("coverage")->AsString(), "Single");
  EXPECT_EQ(body.AsObject().Find("users")->AsArray().size(), 3u);
  EXPECT_EQ(body.AsObject().Find("explanations"), nullptr);
}

TEST_F(SelectionServiceTest, RepeatedRequestServedFromCacheByteIdentical) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  const SelectionRequest request = ParseRequest(R"({"budget": 2})");

  Result<ServiceReply> first = service.Select(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);

  Result<ServiceReply> second = service.Select(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(CounterValue("serve.cache.hits"), 1u);
  EXPECT_EQ(CounterValue("serve.cache.misses"), 1u);
  EXPECT_EQ(CounterValue("serve.requests"), 2u);
}

TEST_F(SelectionServiceTest, CustomizationRoundTripPreservesConfiguration) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  const SelectionRequest request = ParseRequest(R"({
    "budget": 2, "selector": "greedy",
    "weights": "Iden", "coverage": "Single",
    "must_not": ["livesIn Tokyo"], "priority": ["livesIn NYC"]})");

  Result<ServiceReply> reply = service.Select(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  const json::Value body = ParseBody(reply->body);
  const json::Object& root = body.AsObject();

  // The request's configuration must survive the round trip exactly.
  EXPECT_EQ(root.Find("budget")->AsNumber(), 2.0);
  EXPECT_EQ(root.Find("selector")->AsString(), "greedy");
  EXPECT_EQ(root.Find("weights")->AsString(), "Iden");
  EXPECT_EQ(root.Find("coverage")->AsString(), "Single");
  ASSERT_EQ(root.Find("must_not")->AsArray().size(), 1u);
  EXPECT_EQ(root.Find("must_not")->AsArray().at(0).AsString(),
            "livesIn Tokyo");
  ASSERT_EQ(root.Find("priority")->AsArray().size(), 1u);
  EXPECT_EQ(root.Find("priority")->AsArray().at(0).AsString(), "livesIn NYC");
  EXPECT_TRUE(root.Find("must_have")->AsArray().empty());

  // Customized selections carry the dual score block.
  ASSERT_NE(root.Find("custom"), nullptr);
  EXPECT_NE(root.Find("custom")->AsObject().Find("priority_score"), nullptr);
  EXPECT_NE(root.Find("custom")->AsObject().Find("standard_score"), nullptr);

  // must_not "livesIn Tokyo" bans Alice and David (Table 2).
  for (const json::Value& user : root.Find("users")->AsArray()) {
    const std::string& name = user.AsObject().Find("name")->AsString();
    EXPECT_NE(name, "Alice");
    EXPECT_NE(name, "David");
  }
}

TEST_F(SelectionServiceTest, ExplainRequestsCarryExplanations) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  Result<ServiceReply> reply =
      service.Select(ParseRequest(R"({"budget": 2, "explain": true})"));
  ASSERT_TRUE(reply.ok()) << reply.status();
  const json::Value body = ParseBody(reply->body);
  const json::Value* explanations = body.AsObject().Find("explanations");
  ASSERT_NE(explanations, nullptr);
  ASSERT_EQ(explanations->AsArray().size(), 2u);
  EXPECT_NE(explanations->AsArray().at(0).AsObject().Find("groups"), nullptr);
}

TEST_F(SelectionServiceTest, UnknownLabelIsNotFound) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  Result<ServiceReply> reply = service.Select(
      ParseRequest(R"({"must_have": ["livesIn Atlantis"]})"));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_NE(reply.status().message().find("livesIn Atlantis"),
            std::string::npos);
}

TEST_F(SelectionServiceTest, MissingSnapshotIsFailedPrecondition) {
  SelectionService service(nullptr, ServiceOptions{});
  Result<ServiceReply> reply = service.Select(ParseRequest("{}"));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SelectionServiceTest, SwapSnapshotBumpsGenerationAndBypassesOldCache) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  const SelectionRequest request = ParseRequest(R"({"budget": 2})");
  ASSERT_TRUE(service.Select(request).ok());
  ASSERT_TRUE(service.Select(request).value().cache_hit);

  service.SwapSnapshot(BuildTable2Snapshot(2));
  Result<ServiceReply> reply = service.Select(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  // Generation is part of the cache key: the gen-1 entry no longer matches.
  EXPECT_FALSE(reply->cache_hit);
  EXPECT_EQ(reply->snapshot_generation, 2u);
  const json::Value body = ParseBody(reply->body);
  EXPECT_EQ(body.AsObject().Find("snapshot_generation")->AsNumber(), 2.0);
}

/// Holds the admission slot of a concurrency-1 service open until
/// Unblock(), so admission-control paths can be driven deterministically.
class SlotBlocker {
 public:
  ServiceOptions Options() {
    ServiceOptions options;
    options.max_concurrency = 1;
    options.cache_entries = 0;
    options.post_admission_hook = [this] {
      util::MutexLock lock(mutex_);
      admitted_ = true;
      state_changed_.NotifyAll();
      while (!released_) state_changed_.Wait(lock);
    };
    return options;
  }

  void StartHolder(SelectionService& service) {
    holder_ = std::thread([&service] {
      SelectionRequest request;
      request.budget = 2;
      const Result<ServiceReply> reply = service.Select(request);
      EXPECT_TRUE(reply.ok()) << reply.status();
    });
    util::MutexLock lock(mutex_);
    while (!admitted_) state_changed_.Wait(lock);
  }

  void Unblock() {
    {
      util::MutexLock lock(mutex_);
      released_ = true;
    }
    state_changed_.NotifyAll();
    holder_.join();
  }

 private:
  util::Mutex mutex_{"test.service"};
  util::CondVar state_changed_;
  bool admitted_ PODIUM_GUARDED_BY(mutex_) = false;
  bool released_ PODIUM_GUARDED_BY(mutex_) = false;
  std::thread holder_;
};

TEST_F(SelectionServiceTest, FullAdmissionQueueRejectsWith429) {
  SlotBlocker blocker;
  ServiceOptions options = blocker.Options();
  options.max_queue_depth = 0;  // no waiting room at all
  SelectionService service(BuildTable2Snapshot(1), options);
  blocker.StartHolder(service);

  Result<ServiceReply> rejected =
      service.Select(ParseRequest(R"({"budget": 3})"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("serve.rejected"), 1u);
  EXPECT_EQ(CounterValue("serve.errors"), 1u);

  blocker.Unblock();
}

TEST_F(SelectionServiceTest, QueuedRequestTimesOutWithDeadlineExceeded) {
  SlotBlocker blocker;
  ServiceOptions options = blocker.Options();
  options.max_queue_depth = 4;
  options.default_deadline_ms = 40;
  SelectionService service(BuildTable2Snapshot(1), options);
  blocker.StartHolder(service);

  Result<ServiceReply> timed_out =
      service.Select(ParseRequest(R"({"budget": 3})"));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("serve.deadline_exceeded"), 1u);

  blocker.Unblock();
  // With the slot free again the same request succeeds.
  EXPECT_TRUE(service.Select(ParseRequest(R"({"budget": 3})")).ok());
}

TEST_F(SelectionServiceTest, ConcurrentSelectsAllSucceedAndAgree) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::string> bodies(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &bodies, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SelectionRequest request;
        request.budget = 2 + (t % 2);
        Result<ServiceReply> reply = service.Select(request);
        ASSERT_TRUE(reply.ok()) << reply.status();
        if (bodies[t].empty()) {
          bodies[t] = reply->body;
        } else {
          // Same request, same snapshot: the payload never varies.
          EXPECT_EQ(reply->body, bodies[t]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(CounterValue("serve.requests"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(CounterValue("serve.errors"), 0u);
}

TEST_F(SelectionServiceTest, IdenticalConcurrentMissesCoalesceIntoOneRun) {
  constexpr std::size_t kCallers = 4;
  // The leader parks inside its admission slot until every other caller
  // has joined its flight (visible on the shared counter), so the
  // coalescing is deterministic, not a timing accident.
  ServiceOptions options;
  options.post_admission_hook = [] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (CounterValue("serve.singleflight.shared") < kCallers - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  SelectionService service(BuildTable2Snapshot(1), options);

  std::vector<std::string> bodies(kCallers);
  // char, not bool: vector<bool> packs bits, and concurrent writers to
  // different indices would race on the shared word.
  std::vector<char> coalesced(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&service, &bodies, &coalesced, t] {
      SelectionRequest request;
      request.budget = 2;
      Result<ServiceReply> reply = service.Select(request);
      ASSERT_TRUE(reply.ok()) << reply.status();
      EXPECT_FALSE(reply->cache_hit);
      bodies[t] = reply->body;
      coalesced[t] = reply->coalesced;
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one selection ran; everyone else shared it, byte-identically.
  EXPECT_EQ(CounterValue("serve.singleflight.leader"), 1u);
  EXPECT_EQ(CounterValue("serve.singleflight.shared"), kCallers - 1);
  std::size_t coalesced_count = 0;
  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_FALSE(bodies[t].empty());
    EXPECT_EQ(bodies[t], bodies[0]);
    if (coalesced[t]) ++coalesced_count;
  }
  EXPECT_EQ(coalesced_count, kCallers - 1);
}

TEST_F(SelectionServiceTest, CoalescedCallersShareTheLeaderError) {
  constexpr std::size_t kCallers = 3;
  ServiceOptions options;
  options.post_admission_hook = [] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (CounterValue("serve.singleflight.shared") < kCallers - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  SelectionService service(BuildTable2Snapshot(1), options);

  std::vector<StatusCode> codes(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&service, &codes, t] {
      // Fails inside RunSelection (after admission): the label is unknown.
      const SelectionRequest request =
          ParseRequest(R"({"must_have": ["livesIn Atlantis"]})");
      Result<ServiceReply> reply = service.Select(request);
      ASSERT_FALSE(reply.ok());
      codes[t] = reply.status().code();
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One failing run, shared by everyone — not retried once per caller.
  EXPECT_EQ(CounterValue("serve.singleflight.leader"), 1u);
  EXPECT_EQ(CounterValue("serve.singleflight.shared"), kCallers - 1);
  for (StatusCode code : codes) EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST_F(SelectionServiceTest, RequestsSharingInstanceParametersReusePool) {
  SelectionService service(BuildTable2Snapshot(1), ServiceOptions{});

  // Distinct cache keys (different budget), same non-default instance
  // parameters (Iden weights; under Single coverage the budget does not
  // change the instance): the second request must reuse the pooled
  // instance instead of rebuilding it.
  const SelectionRequest first =
      ParseRequest(R"({"weights": "Iden", "budget": 2})");
  const SelectionRequest second =
      ParseRequest(R"({"weights": "Iden", "budget": 3})");
  Result<ServiceReply> first_reply = service.Select(first);
  ASSERT_TRUE(first_reply.ok()) << first_reply.status();
  EXPECT_EQ(CounterValue("serve.batch.instance_reuse"), 0u);
  Result<ServiceReply> second_reply = service.Select(second);
  ASSERT_TRUE(second_reply.ok()) << second_reply.status();
  EXPECT_EQ(CounterValue("serve.batch.instance_reuse"), 1u);
  EXPECT_FALSE(second_reply->cache_hit);

  // Same instance, so the budget-2 selection is the budget-3 one's prefix.
  const json::Value short_body = ParseBody(first_reply->body);
  const json::Value long_body = ParseBody(second_reply->body);
  const json::Array& short_users =
      short_body.AsObject().Find("users")->AsArray();
  const json::Array& long_users = long_body.AsObject().Find("users")->AsArray();
  ASSERT_EQ(short_users.size(), 2u);
  ASSERT_EQ(long_users.size(), 3u);
  for (std::size_t i = 0; i < short_users.size(); ++i) {
    EXPECT_EQ(short_users.at(i), long_users.at(i));
  }

  // A snapshot swap obsoletes the pool: the same request builds afresh
  // for the new generation.
  service.SwapSnapshot(BuildTable2Snapshot(2));
  Result<ServiceReply> swapped = service.Select(first);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_FALSE(swapped->cache_hit);
  EXPECT_EQ(CounterValue("serve.batch.instance_reuse"), 1u);
}

}  // namespace
}  // namespace podium::serve
