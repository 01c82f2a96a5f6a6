// Unit tests for podium::shard: the partitioner (determinism, coverage,
// strategy parsing), the shards' slices of the global groups vs the
// single-snapshot GroupIndex, GroupIndex::FromMembership, the sharded
// snapshot's accessors, and the two-round selector's contracts — K=1
// byte-identity with the unsharded greedy, exact rescoring, the
// approximation bound, thread invariance, and the serve integration. The
// randomized cross-check at scale lives in podium_check --shard-sweep.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "podium/core/greedy.h"
#include "podium/core/instance.h"
#include "podium/core/score.h"
#include "podium/datagen/generator.h"
#include "podium/obs/trace.h"
#include "podium/serve/service.h"
#include "podium/serve/snapshot.h"
#include "podium/shard/partitioner.h"
#include "podium/shard/sharded_selector.h"
#include "podium/shard/sharded_snapshot.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {
namespace {

datagen::Dataset MakeDataset(std::size_t users, std::uint64_t seed = 11,
                             std::size_t leaf_categories = 8) {
  datagen::DatasetConfig config;
  config.num_users = users;
  config.num_restaurants = 60;
  config.leaf_categories = leaf_categories;
  config.num_cities = 4;
  config.min_reviews_per_user = 2;
  config.max_reviews_per_user = 8;
  config.holdout_destinations = 0;
  config.derive_enthusiasm = false;
  config.seed = seed;
  Result<datagen::Dataset> dataset = datagen::GenerateDataset(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

TEST(PartitionerTest, ShardsAreDisjointCoveringAndAscending) {
  const datagen::Dataset data = MakeDataset(300);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHashUsers, PartitionStrategy::kGroupAffine}) {
    ShardOptions options;
    options.num_shards = 4;
    options.strategy = strategy;
    Result<PartitionPlan> plan =
        Partitioner::Partition(data.repository, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->users.size(), 4u);
    std::set<UserId> seen;
    for (const std::vector<UserId>& shard : plan->users) {
      EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
      for (UserId u : shard) {
        EXPECT_LT(u, data.repository.user_count());
        EXPECT_TRUE(seen.insert(u).second) << "user in two shards: " << u;
      }
    }
    EXPECT_EQ(seen.size(), data.repository.user_count());
    EXPECT_EQ(plan->total_users(), data.repository.user_count());
  }
}

TEST(PartitionerTest, DeterministicAcrossRunsAndThreadCounts) {
  const datagen::Dataset data = MakeDataset(500);
  ShardOptions options;
  options.num_shards = 8;
  const std::size_t prior = util::ThreadPool::GlobalThreadCount();
  util::ThreadPool::SetGlobalThreadCount(1);
  Result<PartitionPlan> serial = Partitioner::Partition(data.repository,
                                                        options);
  util::ThreadPool::SetGlobalThreadCount(4);
  Result<PartitionPlan> parallel = Partitioner::Partition(data.repository,
                                                          options);
  util::ThreadPool::SetGlobalThreadCount(prior);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial->users, parallel->users);
}

TEST(PartitionerTest, SingleShardHoldsEveryone) {
  const datagen::Dataset data = MakeDataset(64);
  Result<PartitionPlan> plan =
      Partitioner::Partition(data.repository, ShardOptions{});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->users.size(), 1u);
  ASSERT_EQ(plan->users[0].size(), data.repository.user_count());
  for (UserId u = 0; u < plan->users[0].size(); ++u) {
    EXPECT_EQ(plan->users[0][u], u);
  }
}

TEST(PartitionerTest, RejectsZeroShards) {
  const datagen::Dataset data = MakeDataset(16);
  ShardOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(Partitioner::Partition(data.repository, options).ok());
}

TEST(PartitionerTest, StrategyNamesRoundTrip) {
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHashUsers, PartitionStrategy::kGroupAffine}) {
    Result<PartitionStrategy> parsed =
        ParsePartitionStrategy(PartitionStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), strategy);
  }
  EXPECT_FALSE(ParsePartitionStrategy("round-robin").ok());
}

TEST(GroupSchemeTest, MatchesUnshardedGroupIndex) {
  const datagen::Dataset data = MakeDataset(200);
  const InstanceOptions options;
  Result<GroupIndex> index = GroupIndex::Build(data.repository,
                                               options.grouping);
  ASSERT_TRUE(index.ok());
  ShardOptions shard_options;
  shard_options.num_shards = 3;
  Result<std::shared_ptr<const ShardedSnapshot>> snapshot =
      ShardedSnapshot::Build(data.repository, options, shard_options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const ShardedSnapshot& sharded = *snapshot.value();
  ASSERT_EQ(sharded.group_count(), index->group_count());
  for (GroupId g = 0; g < index->group_count(); ++g) {
    std::size_t global_size = 0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      const GroupIndex& local = sharded.shard(s).instance.groups();
      EXPECT_EQ(local.label(g), index->label(g)) << g;
      global_size += local.group_size(g);
    }
    EXPECT_EQ(global_size, index->group_size(g)) << g;
  }
  EXPECT_EQ(sharded.user_count(), data.repository.user_count());
}

// Each shard's index is the unsharded index restricted to the shard's
// users, in the global group-id space. With 60 leaf categories the rarest
// have only a few raters, so min_group_size 3 prunes candidates of global
// size 1-2 that are still non-empty in some shard.
TEST(GroupSchemeTest, ShardSlicesAreTheUnshardedIndexRestricted) {
  const datagen::Dataset data = MakeDataset(240, 11, 60);
  for (const std::size_t min_group_size : {std::size_t{1}, std::size_t{3}}) {
    InstanceOptions options;
    options.grouping.min_group_size = min_group_size;
    Result<GroupIndex> index =
        GroupIndex::Build(data.repository, options.grouping);
    ASSERT_TRUE(index.ok());
    if (min_group_size == 1) {
      bool has_small_group = false;
      for (GroupId g = 0; g < index->group_count(); ++g) {
        has_small_group = has_small_group || index->group_size(g) < 3;
      }
      ASSERT_TRUE(has_small_group) << "min_group_size 3 would prune nothing";
    }
    for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
      for (const PartitionStrategy strategy :
           {PartitionStrategy::kHashUsers, PartitionStrategy::kGroupAffine}) {
        SCOPED_TRACE(::testing::Message()
                     << "min_group_size " << min_group_size << ", K " << k
                     << ", " << PartitionStrategyName(strategy));
        ShardOptions shard_options;
        shard_options.num_shards = k;
        shard_options.strategy = strategy;
        Result<std::shared_ptr<const ShardedSnapshot>> snapshot =
            ShardedSnapshot::Build(data.repository, options, shard_options);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        for (std::size_t s = 0; s < k; ++s) {
          const ShardSnapshot& shard = snapshot.value()->shard(s);
          const GroupIndex& local = shard.instance.groups();
          ASSERT_EQ(local.group_count(), index->group_count()) << s;
          for (GroupId g = 0; g < index->group_count(); ++g) {
            std::vector<UserId> mapped;
            for (UserId u : local.members(g)) {
              mapped.push_back(shard.global_ids[u]);
            }
            std::vector<UserId> expected;
            for (UserId u : index->members(g)) {
              if (std::binary_search(shard.global_ids.begin(),
                                     shard.global_ids.end(), u)) {
                expected.push_back(u);
              }
            }
            EXPECT_EQ(mapped, expected) << "shard " << s << ", group " << g;
          }
        }
      }
    }
  }
}

TEST(GroupIndexTest, FromMembershipKeepsEmptyGroups) {
  std::vector<GroupDef> defs(3);
  defs[0].label = "a";
  defs[1].label = "empty";
  defs[2].label = "c";
  const std::vector<std::vector<UserId>> members = {{0, 2}, {}, {1, 2, 3}};
  Result<GroupIndex> index = GroupIndex::FromMembership(defs, members, 4);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->group_count(), 3u);  // empty group kept, unlike FromDefs
  EXPECT_EQ(index->group_size(0), 2u);
  EXPECT_EQ(index->group_size(1), 0u);
  EXPECT_EQ(index->group_size(2), 3u);
  EXPECT_EQ(index->label(1), "empty");
}

TEST(GroupIndexTest, FromMembershipValidatesInput) {
  std::vector<GroupDef> defs(1);
  defs[0].label = "g";
  // Member list count must match defs.
  EXPECT_FALSE(GroupIndex::FromMembership(defs, {{0}, {1}}, 4).ok());
  // Members must be strictly ascending.
  EXPECT_FALSE(GroupIndex::FromMembership(defs, {{2, 1}}, 4).ok());
  EXPECT_FALSE(GroupIndex::FromMembership(defs, {{1, 1}}, 4).ok());
  // Members must be in range.
  EXPECT_FALSE(GroupIndex::FromMembership(defs, {{5}}, 4).ok());
}

struct ShardFixture {
  datagen::Dataset data;
  InstanceOptions options;
  DiversificationInstance instance;
  Selection unsharded;

  static ShardFixture Make(std::size_t users, std::size_t budget,
                           WeightKind weights = WeightKind::kLbs,
                           CoverageKind coverage = CoverageKind::kProp) {
    ShardFixture f{MakeDataset(users), {}, {}, {}};
    f.options.budget = budget;
    f.options.weight_kind = weights;
    f.options.coverage_kind = coverage;
    Result<DiversificationInstance> instance =
        DiversificationInstance::Build(f.data.repository, f.options);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    f.instance = std::move(instance).value();
    Result<Selection> greedy =
        GreedySelector().Select(f.instance, budget);
    EXPECT_TRUE(greedy.ok());
    f.unsharded = std::move(greedy).value();
    return f;
  }

  Result<std::shared_ptr<const ShardedSnapshot>> Sharded(
      std::size_t k,
      PartitionStrategy strategy = PartitionStrategy::kHashUsers) const {
    ShardOptions shard_options;
    shard_options.num_shards = k;
    shard_options.strategy = strategy;
    return ShardedSnapshot::Build(data.repository, options, shard_options);
  }
};

TEST(ShardedSnapshotTest, AccessorsAndMemory) {
  const ShardFixture f = ShardFixture::Make(150, 4);
  Result<std::shared_ptr<const ShardedSnapshot>> snapshot = f.Sharded(3);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const ShardedSnapshot& sharded = *snapshot.value();
  EXPECT_EQ(sharded.shard_count(), 3u);
  EXPECT_EQ(sharded.user_count(), f.data.repository.user_count());
  EXPECT_EQ(sharded.group_count(), f.instance.groups().group_count());
  EXPECT_EQ(sharded.weight_kind(), WeightKind::kLbs);
  EXPECT_EQ(sharded.coverage_kind(), CoverageKind::kProp);
  EXPECT_EQ(sharded.default_budget(), 4u);
  EXPECT_EQ(sharded.coverage().size(), sharded.group_count());
  EXPECT_EQ(sharded.weights().size(), sharded.group_count());
  std::size_t shard_sum = 0;
  std::size_t memory_sum = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    shard_sum += sharded.shard(s).user_count();
    memory_sum += sharded.shard(s).MemoryBytes();
  }
  EXPECT_EQ(shard_sum, sharded.user_count());
  EXPECT_EQ(sharded.MemoryBytes(), memory_sum);
  EXPECT_GT(sharded.MemoryBytes(), 0u);
}

TEST(ShardedSnapshotTest, LocateAndUserNameRoundTrip) {
  const ShardFixture f = ShardFixture::Make(120, 3);
  Result<std::shared_ptr<const ShardedSnapshot>> snapshot = f.Sharded(4);
  ASSERT_TRUE(snapshot.ok());
  const ShardedSnapshot& sharded = *snapshot.value();
  for (UserId u = 0; u < f.data.repository.user_count(); ++u) {
    Result<ShardedSnapshot::Location> location = sharded.Locate(u);
    ASSERT_TRUE(location.ok()) << u;
    const ShardSnapshot& shard = sharded.shard(location->shard);
    EXPECT_EQ(shard.global_ids[location->local], u);
    Result<std::string> name = sharded.UserName(u);
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(name.value(), f.data.repository.user(u).name());
  }
  EXPECT_FALSE(
      sharded.Locate(static_cast<UserId>(f.data.repository.user_count()))
          .ok());
}

TEST(ShardedSnapshotTest, RejectsEbsAndZeroBudget) {
  const datagen::Dataset data = MakeDataset(60);
  InstanceOptions ebs;
  ebs.budget = 4;
  ebs.weight_kind = WeightKind::kEbs;
  Result<std::shared_ptr<const ShardedSnapshot>> rejected =
      ShardedSnapshot::Build(data.repository, ebs, ShardOptions{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnimplemented);

  InstanceOptions zero;
  zero.budget = 0;
  EXPECT_FALSE(
      ShardedSnapshot::Build(data.repository, zero, ShardOptions{}).ok());
}

TEST(ShardedSelectorTest, SingleShardIsByteIdenticalToUnsharded) {
  for (const WeightKind weights : {WeightKind::kIden, WeightKind::kLbs}) {
    for (const CoverageKind coverage :
         {CoverageKind::kSingle, CoverageKind::kProp}) {
      const ShardFixture f = ShardFixture::Make(130, 5, weights, coverage);
      Result<std::shared_ptr<const ShardedSnapshot>> snapshot = f.Sharded(1);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      Result<ShardedSelection> selection =
          ShardedSelector().Select(*snapshot.value(), 5);
      ASSERT_TRUE(selection.ok()) << selection.status().ToString();
      EXPECT_EQ(selection->merged.users, f.unsharded.users);
      EXPECT_EQ(selection->merged.score, f.unsharded.score);

      // Selecting everyone ends both rounds in the zero-gain tail.
      const std::size_t all = f.data.repository.user_count();
      Result<Selection> unsharded_all = GreedySelector().Select(f.instance, all);
      Result<ShardedSelection> sharded_all =
          ShardedSelector().Select(*snapshot.value(), all);
      ASSERT_TRUE(unsharded_all.ok());
      ASSERT_TRUE(sharded_all.ok()) << sharded_all.status().ToString();
      EXPECT_EQ(sharded_all->merged.users, unsharded_all->users);
      EXPECT_EQ(sharded_all->merged.score, unsharded_all->score);
    }
  }
}

TEST(ShardedSelectorTest, MergedScoreIsExactAndMeetsBound) {
  constexpr std::size_t kBudget = 6;
  const ShardFixture f = ShardFixture::Make(400, kBudget);
  const double factor = 1.0 - std::exp(-1.0);
  for (const std::size_t k : {std::size_t{2}, std::size_t{8}}) {
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kHashUsers, PartitionStrategy::kGroupAffine}) {
      Result<std::shared_ptr<const ShardedSnapshot>> snapshot =
          f.Sharded(k, strategy);
      ASSERT_TRUE(snapshot.ok());
      Result<ShardedSelection> selection =
          ShardedSelector().Select(*snapshot.value(), kBudget);
      ASSERT_TRUE(selection.ok()) << selection.status().ToString();
      EXPECT_EQ(selection->merged.users.size(), kBudget);
      // The reported score is the GLOBAL objective of the merged set,
      // recomputed exactly by the unsharded scorer.
      EXPECT_EQ(selection->merged.score,
                TotalScore(f.instance, selection->merged.users));
      // Two-round guarantee vs the single-snapshot greedy.
      const double bound =
          factor * factor / static_cast<double>(std::min(k, kBudget));
      EXPECT_GE(selection->merged.score, bound * f.unsharded.score);
      // Observability contract: per-shard pools and timings are reported.
      EXPECT_EQ(selection->pool_sizes.size(), k);
      EXPECT_EQ(selection->shard_seconds.size(), k);
      std::size_t pool_sum = 0;
      for (std::size_t pool : selection->pool_sizes) pool_sum += pool;
      EXPECT_EQ(pool_sum, selection->candidate_count);
      EXPECT_GE(selection->candidate_count, kBudget);
    }
  }
}

TEST(ShardedSelectorTest, ThreadCountDoesNotChangeSelection) {
  const ShardFixture f = ShardFixture::Make(250, 5);
  const std::size_t prior = util::ThreadPool::GlobalThreadCount();
  std::vector<Selection> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::SetGlobalThreadCount(threads);
    Result<std::shared_ptr<const ShardedSnapshot>> snapshot = f.Sharded(3);
    ASSERT_TRUE(snapshot.ok());
    Result<ShardedSelection> selection =
        ShardedSelector().Select(*snapshot.value(), 5);
    ASSERT_TRUE(selection.ok());
    results.push_back(selection->merged);
  }
  util::ThreadPool::SetGlobalThreadCount(prior);
  EXPECT_EQ(results[0].users, results[1].users);
  EXPECT_EQ(results[0].score, results[1].score);
}

TEST(ShardedSelectorTest, RejectsZeroBudget) {
  const ShardFixture f = ShardFixture::Make(50, 3);
  Result<std::shared_ptr<const ShardedSnapshot>> snapshot = f.Sharded(2);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(ShardedSelector().Select(*snapshot.value(), 0).ok());
}

TEST(ServeShardedTest, SnapshotServiceAndRestrictions) {
  const ShardFixture f = ShardFixture::Make(180, 4);
  serve::SnapshotOptions snapshot_options;
  snapshot_options.instance = f.options;
  snapshot_options.shard.num_shards = 3;
  Result<std::shared_ptr<const serve::Snapshot>> snapshot =
      serve::Snapshot::Build(f.data.repository.Clone(), snapshot_options,
                             /*generation=*/7);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot.value()->is_sharded());
  EXPECT_EQ(snapshot.value()->generation(), 7u);
  EXPECT_EQ(snapshot.value()->user_count(),
            f.data.repository.user_count());
  EXPECT_EQ(snapshot.value()->group_count(),
            f.instance.groups().group_count());
  EXPECT_GT(snapshot.value()->MemoryBytes(), 0u);

  serve::ServiceOptions service_options;
  service_options.default_deadline_ms = 0;
  serve::SelectionService service(snapshot.value(), service_options);

  // Default request runs the two-round engine and matches the direct
  // selector over the same sharded snapshot.
  Result<ShardedSelection> direct =
      ShardedSelector().Select(*snapshot.value()->sharded(), 4);
  ASSERT_TRUE(direct.ok());
  serve::SelectionRequest request;
  request.budget = 4;
  Result<serve::ServiceReply> reply = service.Select(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  for (UserId u : direct->merged.users) {
    Result<std::string> name = snapshot.value()->sharded()->UserName(u);
    ASSERT_TRUE(name.ok());
    EXPECT_NE(reply->body.find("\"" + name.value() + "\""),
              std::string::npos)
        << reply->body;
  }

  // Unsupported features must be Unimplemented, never wrong answers.
  serve::SelectionRequest explain = request;
  explain.explain = true;
  Result<serve::ServiceReply> explained = service.Select(explain);
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kUnimplemented);

  serve::SelectionRequest override_weights = request;
  override_weights.weight_kind = WeightKind::kIden;
  Result<serve::ServiceReply> overridden = service.Select(override_weights);
  ASSERT_FALSE(overridden.ok());
  EXPECT_EQ(overridden.status().code(), StatusCode::kUnimplemented);

  // Budget override under Prop coverage changes cov(G) → Unimplemented.
  serve::SelectionRequest budget_override = request;
  budget_override.budget = 2;
  Result<serve::ServiceReply> rebudgeted = service.Select(budget_override);
  ASSERT_FALSE(rebudgeted.ok());
  EXPECT_EQ(rebudgeted.status().code(), StatusCode::kUnimplemented);
}

// A sharded miss's trace has the same shape whichever threads ran the
// shards: one shard.round1 span per shard under shard.select, and none of
// the shards' greedy spans.
TEST(ServeShardedTest, MissTraceHasOneRound1SpanPerShard) {
  constexpr std::size_t kShards = 4;
  const ShardFixture f = ShardFixture::Make(240, 4);
  serve::SnapshotOptions snapshot_options;
  snapshot_options.instance = f.options;
  snapshot_options.shard.num_shards = kShards;
  Result<std::shared_ptr<const serve::Snapshot>> snapshot =
      serve::Snapshot::Build(f.data.repository.Clone(), snapshot_options,
                             /*generation=*/1);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  serve::ServiceOptions service_options;
  service_options.cache_entries = 0;
  serve::SelectionService service(snapshot.value(), service_options);
  const std::size_t prior = util::ThreadPool::GlobalThreadCount();
  util::ThreadPool::SetGlobalThreadCount(kShards);
  for (int run = 0; run < 20; ++run) {
    obs::TraceContext trace(obs::TraceId::Generate());
    {
      obs::TraceScope scope(&trace);
      ASSERT_TRUE(service.Select(serve::SelectionRequest{}).ok());
    }
    int select = -1;
    std::size_t round1 = 0;
    std::set<double> shards;
    for (std::size_t i = 0; i < trace.spans().size(); ++i) {
      const obs::TraceSpan& span = trace.spans()[i];
      EXPECT_NE(span.name.rfind("greedy.", 0), 0u) << "run " << run;
      if (span.name == "shard.select") select = static_cast<int>(i);
      if (span.name != "shard.round1") continue;
      ++round1;
      EXPECT_EQ(span.parent, select);
      ASSERT_EQ(span.attributes.size(), 2u);
      EXPECT_EQ(span.attributes[0].key, "shard");
      EXPECT_EQ(span.attributes[1].key, "pool");
      EXPECT_GT(span.attributes[1].value, 0.0);
      shards.insert(span.attributes[0].value);
    }
    EXPECT_NE(select, -1);
    EXPECT_EQ(round1, kShards) << "run " << run;
    EXPECT_EQ(shards, (std::set<double>{0.0, 1.0, 2.0, 3.0})) << "run " << run;
  }
  util::ThreadPool::SetGlobalThreadCount(prior);
}

}  // namespace
}  // namespace podium::shard
