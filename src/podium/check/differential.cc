#include "podium/check/differential.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "podium/check/invariants.h"
#include "podium/check/oracle.h"
#include "podium/core/customization.h"
#include "podium/core/greedy.h"
#include "podium/core/kernels.h"
#include "podium/datagen/generator.h"
#include "podium/json/parser.h"
#include "podium/serve/request.h"
#include "podium/serve/service.h"
#include "podium/shard/sharded_selector.h"
#include "podium/util/rng.h"
#include "podium/util/string_util.h"
#include "podium/util/thread_pool.h"

namespace podium::check {

namespace {

/// Collects divergences for one round, prefixing every message with the
/// round seed so a failure is reproducible from the printed line alone.
struct RoundLog {
  std::uint64_t seed;
  DiffReport* report;

  void Diverge(const std::string& message) {
    report->divergences.push_back(
        util::StringPrintf("[seed %llu] ",
                           static_cast<unsigned long long>(seed)) +
        message);
  }
};

std::string UsersToString(const std::vector<UserId>& users) {
  std::string out = "[";
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(users[i]);
  }
  return out + "]";
}

/// Byte-identical selections: same users in the same order, same score
/// bit pattern (Iden/LBS arithmetic is exact, so == is the right test).
bool SameSelection(const Selection& a, const Selection& b) {
  return a.users == b.users && a.score == b.score;
}

datagen::DatasetConfig MakeConfig(util::Rng& rng, std::uint64_t seed,
                                  bool tiny) {
  datagen::DatasetConfig config;
  config.num_users =
      tiny ? 8 + rng.NextBounded(5) : 20 + rng.NextBounded(41);
  config.num_restaurants = 40 + rng.NextBounded(80);
  config.leaf_categories = 6 + rng.NextBounded(10);
  config.num_cities = 3 + rng.NextBounded(5);
  config.num_age_groups = 3 + rng.NextBounded(3);
  config.num_personas = 2 + rng.NextBounded(4);
  config.num_topics = 6;
  config.min_reviews_per_user = 2;
  config.max_reviews_per_user = 10;
  config.holdout_destinations = 2;
  config.min_holdout_reviews = 3;
  config.derive_enthusiasm = rng.NextBernoulli(0.5);
  config.seed = seed;
  return config;
}

/// Extracts the selected user ids from a serialized serve response body.
Result<std::vector<UserId>> UsersFromBody(const std::string& body) {
  Result<json::Value> document = json::Parse(body);
  if (!document.ok()) return document.status();
  if (!document->is_object()) {
    return Status::ParseError("response body is not an object");
  }
  const json::Value* users = document->AsObject().Find("users");
  if (users == nullptr || !users->is_array()) {
    return Status::ParseError("response body has no users array");
  }
  std::vector<UserId> out;
  out.reserve(users->AsArray().size());
  for (const json::Value& entry : users->AsArray()) {
    const json::Value* id =
        entry.is_object() ? entry.AsObject().Find("id") : nullptr;
    if (id == nullptr || !id->is_number()) {
      return Status::ParseError("user entry has no numeric id");
    }
    out.push_back(static_cast<UserId>(id->AsNumber()));
  }
  return out;
}

/// The tier vector SelectCustomized derives from feedback with
/// standard_is_rest (priority groups tier 0, everything else tier 1) —
/// recomputed independently here for the oracle.
std::vector<std::uint8_t> TiersForPriority(
    std::size_t num_groups, const std::vector<GroupId>& priority) {
  std::vector<std::uint8_t> tiers(num_groups, 1);
  for (GroupId g : priority) tiers[g] = 0;
  return tiers;
}

Result<Selection> RunGreedy(const DiversificationInstance& instance,
                            std::size_t budget) {
  return GreedySelector().Select(instance, budget);
}

/// One round's fixed instance parameters, drawn up front so the same
/// choices replay at every thread count.
struct RoundPlan {
  datagen::DatasetConfig config;
  InstanceOptions instance;
  std::size_t budget = 0;
  bool tiny = false;
};

void CompareWithOracle(RoundLog& log, const char* what,
                       const Selection& oracle, const Selection& actual) {
  if (SameSelection(oracle, actual)) return;
  log.Diverge(util::StringPrintf(
      "%s diverges from oracle: %s score %.17g vs %s score %.17g", what,
      UsersToString(actual.users).c_str(), actual.score,
      UsersToString(oracle.users).c_str(), oracle.score));
}

/// Runs the serve path over `plan` and compares every response variant
/// against the already-verified direct selections.
void CheckServePath(RoundLog& log, const datagen::Dataset& dataset,
                    const RoundPlan& plan, const Selection& oracle,
                    const DiversificationInstance& instance,
                    const Result<CustomSelection>& custom,
                    const CustomizationFeedback& feedback) {
  serve::SnapshotOptions snapshot_options;
  snapshot_options.instance = plan.instance;
  Result<std::shared_ptr<const serve::Snapshot>> snapshot =
      serve::Snapshot::Build(dataset.repository.Clone(), snapshot_options,
                             /*generation=*/log.seed);
  if (!snapshot.ok()) {
    log.Diverge("Snapshot::Build failed: " + snapshot.status().message());
    return;
  }

  serve::ServiceOptions cached_options;
  cached_options.cache_entries = 64;
  cached_options.default_deadline_ms = 0;  // admission timing is not under test
  serve::SelectionService cached(snapshot.value(), cached_options);
  serve::ServiceOptions uncached_options = cached_options;
  uncached_options.cache_entries = 0;
  serve::SelectionService uncached(snapshot.value(), uncached_options);

  {
    serve::SelectionRequest request;
    request.budget = plan.budget;
    Result<serve::ServiceReply> first = cached.Select(request);
    Result<serve::ServiceReply> again = cached.Select(request);
    Result<serve::ServiceReply> direct = uncached.Select(request);
    if (!first.ok() || !again.ok() || !direct.ok()) {
      log.Diverge("serve Select failed: " +
                  (!first.ok() ? first.status()
                               : !again.ok() ? again.status()
                                             : direct.status())
                      .message());
      return;
    }
    if (first->cache_hit || !again->cache_hit) {
      log.Diverge("serve cache hit pattern wrong (want miss then hit)");
    }
    if (again->body != first->body) {
      log.Diverge("cached serve body differs from the uncached original");
    }
    if (direct->body != first->body) {
      log.Diverge("cache-disabled serve body differs from cached service");
    }
    Result<std::vector<UserId>> served = UsersFromBody(first->body);
    if (!served.ok()) {
      log.Diverge("serve body unparseable: " + served.status().message());
    } else if (served.value() != oracle.users) {
      log.Diverge(util::StringPrintf(
          "serve selected %s, oracle %s",
          UsersToString(served.value()).c_str(),
          UsersToString(oracle.users).c_str()));
    }
  }

  // Single-flight: N identical requests against a cold key, issued
  // concurrently, must run exactly one selection. The leader parks inside
  // its admission slot until every follower has joined the flight, so the
  // coalescing is forced rather than timing-dependent; the followers then
  // share the leader's bytes.
  {
    constexpr std::size_t kCallers = 4;
    serve::ServiceOptions coalesce_options = cached_options;
    std::atomic<std::size_t> admissions{0};
    std::atomic<std::size_t> joined{0};
    coalesce_options.post_admission_hook = [&admissions, &joined] {
      ++admissions;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (joined.load() < kCallers - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    serve::SelectionService coalesced(snapshot.value(), coalesce_options);
    coalesced.single_flight().set_join_hook([&joined] { ++joined; });

    serve::SelectionRequest request;
    request.budget = plan.budget;
    std::vector<std::optional<Result<serve::ServiceReply>>> replies(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t i = 0; i < kCallers; ++i) {
      callers.emplace_back([&coalesced, &replies, &request, i] {
        replies[i] = coalesced.Select(request);
      });
    }
    for (std::thread& caller : callers) caller.join();

    if (admissions.load() != 1) {
      log.Diverge(util::StringPrintf(
          "single-flight ran %zu selections for %zu identical requests "
          "(want 1)",
          admissions.load(), kCallers));
    }
    std::size_t shared = 0;
    for (std::size_t i = 0; i < kCallers; ++i) {
      if (!replies[i].has_value() || !replies[i]->ok()) {
        log.Diverge(
            "single-flight Select failed: " +
            (replies[i].has_value() ? replies[i]->status().message()
                                    : std::string("reply never arrived")));
        continue;
      }
      const serve::ServiceReply& reply = replies[i]->value();
      if (reply.coalesced) ++shared;
      Result<std::vector<UserId>> served = UsersFromBody(reply.body);
      if (!served.ok()) {
        log.Diverge("single-flight body unparseable: " +
                    served.status().message());
      } else if (served.value() != oracle.users) {
        log.Diverge(util::StringPrintf(
            "single-flight caller %zu selected %s, oracle %s", i,
            UsersToString(served.value()).c_str(),
            UsersToString(oracle.users).c_str()));
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (replies[j].has_value() && replies[j]->ok() &&
            replies[j]->value().body != reply.body) {
          log.Diverge(util::StringPrintf(
              "single-flight bodies diverge between callers %zu and %zu", j,
              i));
        }
      }
    }
    if (shared != kCallers - 1) {
      log.Diverge(util::StringPrintf(
          "single-flight shared %zu of %zu replies (want %zu)", shared,
          kCallers, kCallers - 1));
    }
  }

  // Customized request through the wire, against SelectCustomized.
  if (custom.ok()) {
    serve::SelectionRequest request;
    request.budget = plan.budget;
    for (GroupId g : feedback.priority) {
      request.priority.push_back(instance.groups().label(g));
    }
    for (GroupId g : feedback.must_not) {
      request.must_not.push_back(instance.groups().label(g));
    }
    Result<serve::ServiceReply> reply = uncached.Select(request);
    if (!reply.ok()) {
      log.Diverge("serve customized Select failed: " +
                  reply.status().message());
      return;
    }
    Result<std::vector<UserId>> served = UsersFromBody(reply->body);
    if (!served.ok()) {
      log.Diverge("serve customized body unparseable: " +
                  served.status().message());
    } else if (served.value() != custom->selection.users) {
      log.Diverge(util::StringPrintf(
          "serve customized selected %s, SelectCustomized %s",
          UsersToString(served.value()).c_str(),
          UsersToString(custom->selection.users).c_str()));
    }
  }
}

/// What the two-round selector must return at K>1, from the oracle alone:
/// OracleGreedy on each shard's instance for its round-1 pool of
/// max(pool_factor·B, B) users, then OracleGreedy over the union of those
/// pools (in global ids) at `budget`.
Result<Selection> OracleTwoRound(const shard::ShardedSnapshot& sharded,
                                 const DiversificationInstance& instance,
                                 std::size_t budget) {
  const std::size_t pool_budget =
      std::max(sharded.options().pool_factor * budget, budget);
  std::vector<UserId> candidates;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const shard::ShardSnapshot& shard = sharded.shard(s);
    if (shard.user_count() == 0) continue;
    Result<Selection> pool = OracleGreedy(shard.instance, pool_budget);
    if (!pool.ok()) return pool.status();
    for (UserId local : pool->users) {
      candidates.push_back(shard.global_ids[local]);
    }
  }
  if (candidates.empty()) return Selection{};  // an empty pool means all users
  return OracleGreedy(instance, budget, std::move(candidates));
}

/// One sharded selection's contract checks (DESIGN.md §13): structural
/// sanity of the merged set and the candidate pools, the merged score
/// rescored exactly by the unsharded oracle scorer, byte-identity to
/// `expected` (the single-snapshot oracle at K=1, OracleTwoRound at K>1),
/// and at K>1 the proven (1−1/e)²/min(K,B) bound against the
/// single-snapshot `oracle`.
void CheckShardedSelection(RoundLog& log, const std::string& what,
                           const shard::ShardedSnapshot& sharded,
                           const shard::ShardedSelection& sel,
                           std::size_t budget,
                           const DiversificationInstance& instance,
                           const Selection& expected, const Selection& oracle,
                           double bound) {
  const Selection& merged = sel.merged;
  const std::size_t want = std::min(budget, sharded.user_count());
  if (merged.users.size() != want) {
    log.Diverge(util::StringPrintf("%s selected %zu users, want %zu",
                                   what.c_str(), merged.users.size(), want));
    return;
  }
  std::vector<UserId> sorted = merged.users;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    log.Diverge(what + " selected a duplicate user: " +
                UsersToString(merged.users));
    return;
  }
  if (!sorted.empty() && sorted.back() >= sharded.user_count()) {
    log.Diverge(what + " selected an out-of-range user: " +
                UsersToString(merged.users));
    return;
  }
  if (sel.pool_sizes.size() != sharded.shard_count()) {
    log.Diverge(util::StringPrintf("%s reported %zu pools for %zu shards",
                                   what.c_str(), sel.pool_sizes.size(),
                                   sharded.shard_count()));
  }
  std::size_t pool_total = 0;
  for (const std::size_t pool : sel.pool_sizes) pool_total += pool;
  if (pool_total != sel.candidate_count) {
    log.Diverge(util::StringPrintf(
        "%s pool sizes sum to %zu but %zu candidates entered the merge",
        what.c_str(), pool_total, sel.candidate_count));
  }
  // The merged score must be the exact global score of the merged set —
  // Iden/LBS arithmetic is integer-exact, so == not within-epsilon.
  const double rescored = OracleScore(instance, merged.users);
  if (rescored != merged.score) {
    log.Diverge(util::StringPrintf(
        "%s reported score %.17g but the oracle rescores %s as %.17g",
        what.c_str(), merged.score, UsersToString(merged.users).c_str(),
        rescored));
  }
  CompareWithOracle(log, what.c_str(), expected, merged);
  if (sharded.shard_count() > 1 && merged.score < bound * oracle.score) {
    log.Diverge(util::StringPrintf(
        "%s score %.17g below the two-round bound %.17g (= %.4f x oracle "
        "%.17g)",
        what.c_str(), merged.score, bound * oracle.score, bound,
        oracle.score));
  }
}

/// Sweeps the sharded engine over `options.shard_counts` × both partition
/// strategies × `options.shard_thread_counts`, then (for K>1) drives the
/// sharded serve path and compares its responses to the direct selector.
/// K=1 runs every budget of the round against its oracle (`oracles[i]`
/// for `budgets[i]`); K>1 runs the round's budget against OracleTwoRound.
void CheckShardedPath(RoundLog& log, const datagen::Dataset& dataset,
                      const RoundPlan& plan,
                      const DiversificationInstance& instance,
                      const std::vector<std::size_t>& budgets,
                      const std::vector<Selection>& oracles,
                      const DiffOptions& options) {
  const Selection& oracle = oracles.front();
  const double greedy_factor = 1.0 - std::exp(-1.0);
  for (const std::size_t num_shards : options.shard_counts) {
    if (num_shards == 0) continue;
    const double bound =
        greedy_factor * greedy_factor /
        static_cast<double>(
            std::min<std::size_t>(num_shards, std::max<std::size_t>(
                                                  plan.budget, 1)));
    for (const shard::PartitionStrategy strategy :
         {shard::PartitionStrategy::kHashUsers,
          shard::PartitionStrategy::kGroupAffine}) {
      shard::ShardOptions shard_options;
      shard_options.num_shards = num_shards;
      shard_options.strategy = strategy;
      const std::string tag = util::StringPrintf(
          "sharded K=%zu/%s", num_shards,
          std::string(shard::PartitionStrategyName(strategy)).c_str());
      // Partitioning, shard builds, and both selection rounds are all
      // deterministic in the input alone, so every thread-count cell must
      // reproduce one reference selection byte for byte.
      std::optional<Selection> reference;
      std::optional<Selection> two_round;
      for (const std::size_t threads : options.shard_thread_counts) {
        util::ThreadPool::SetGlobalThreadCount(threads);
        Result<std::shared_ptr<const shard::ShardedSnapshot>> snapshot =
            shard::ShardedSnapshot::Build(dataset.repository, plan.instance,
                                          shard_options, log.seed);
        if (!snapshot.ok()) {
          log.Diverge(tag + ": ShardedSnapshot::Build failed: " +
                      snapshot.status().message());
          break;
        }
        const shard::ShardedSnapshot& sharded = *snapshot.value();
        if (sharded.user_count() != dataset.repository.user_count()) {
          log.Diverge(util::StringPrintf(
              "%s: shards hold %zu users, repository has %zu", tag.c_str(),
              sharded.user_count(), dataset.repository.user_count()));
        }
        if (sharded.group_count() != instance.groups().group_count()) {
          log.Diverge(util::StringPrintf(
              "%s: scheme has %zu groups, unsharded index has %zu",
              tag.c_str(), sharded.group_count(),
              instance.groups().group_count()));
        }
        if (num_shards > 1 && !two_round.has_value()) {
          Result<Selection> expected =
              OracleTwoRound(sharded, instance, plan.budget);
          if (!expected.ok()) {
            log.Diverge(tag + ": two-round oracle failed: " +
                        expected.status().message());
            break;
          }
          two_round = std::move(expected).value();
        }
        const std::size_t runs = num_shards == 1 ? budgets.size() : 1;
        for (std::size_t i = 0; i < runs; ++i) {
          Result<shard::ShardedSelection> sel =
              shard::ShardedSelector().Select(sharded, budgets[i]);
          const std::string what =
              util::StringPrintf("%s at budget %zu @%zu threads", tag.c_str(),
                                 budgets[i], threads);
          if (!sel.ok()) {
            log.Diverge(what + " failed: " + sel.status().message());
            continue;
          }
          CheckShardedSelection(log, what, sharded, sel.value(), budgets[i],
                                instance,
                                num_shards == 1 ? oracles[i] : *two_round,
                                oracle, bound);
          if (i > 0) continue;
          if (!reference.has_value()) {
            reference = sel->merged;
          } else if (!SameSelection(*reference, sel->merged)) {
            log.Diverge(util::StringPrintf(
                "%s selected %s score %.17g; the first cell of this sweep "
                "selected %s score %.17g",
                what.c_str(), UsersToString(sel->merged.users).c_str(),
                sel->merged.score, UsersToString(reference->users).c_str(),
                reference->score));
          }
        }
      }

      // The sharded serve path (serve::Snapshot only routes to it at
      // K>1): served users must match the direct selector, cached and
      // uncached bodies must agree, and unsupported features must map to
      // Unimplemented rather than wrong answers.
      if (!options.with_serve || num_shards <= 1 || !reference.has_value()) {
        continue;
      }
      serve::SnapshotOptions snapshot_options;
      snapshot_options.instance = plan.instance;
      snapshot_options.shard = shard_options;
      Result<std::shared_ptr<const serve::Snapshot>> snapshot =
          serve::Snapshot::Build(dataset.repository.Clone(),
                                 snapshot_options, /*generation=*/log.seed);
      if (!snapshot.ok()) {
        log.Diverge(tag + ": sharded serve Snapshot::Build failed: " +
                    snapshot.status().message());
        continue;
      }
      serve::ServiceOptions service_options;
      service_options.cache_entries = 64;
      service_options.default_deadline_ms = 0;
      serve::SelectionService service(snapshot.value(), service_options);
      serve::SelectionRequest request;
      request.budget = plan.budget;
      Result<serve::ServiceReply> first = service.Select(request);
      Result<serve::ServiceReply> again = service.Select(request);
      if (!first.ok() || !again.ok()) {
        log.Diverge(tag + ": sharded serve Select failed: " +
                    (!first.ok() ? first.status() : again.status()).message());
        continue;
      }
      if (first->cache_hit || !again->cache_hit ||
          again->body != first->body) {
        log.Diverge(tag + ": sharded serve cache replay is not byte-"
                          "identical to the original response");
      }
      Result<std::vector<UserId>> served = UsersFromBody(first->body);
      if (!served.ok()) {
        log.Diverge(tag + ": sharded serve body unparseable: " +
                    served.status().message());
      } else if (served.value() != reference->users) {
        log.Diverge(util::StringPrintf(
            "%s: serve selected %s, direct selector %s", tag.c_str(),
            UsersToString(served.value()).c_str(),
            UsersToString(reference->users).c_str()));
      }
      serve::SelectionRequest explain_request;
      explain_request.budget = plan.budget;
      explain_request.explain = true;
      Result<serve::ServiceReply> explained = service.Select(explain_request);
      if (explained.ok() ||
          explained.status().code() != StatusCode::kUnimplemented) {
        log.Diverge(tag + ": sharded serve explain request should be "
                          "Unimplemented");
      }
    }
  }
}

void RunRound(RoundLog& log, const DiffOptions& options, int round) {
  util::Rng rng(log.seed);
  RoundPlan plan;
  plan.tiny = round % 4 == 3;  // every 4th round small enough for exhaustive
  plan.config = MakeConfig(rng, log.seed, plan.tiny);
  plan.instance.weight_kind =
      rng.NextBernoulli(0.5) ? WeightKind::kLbs : WeightKind::kIden;
  plan.instance.coverage_kind =
      rng.NextBernoulli(0.5) ? CoverageKind::kProp : CoverageKind::kSingle;
  plan.instance.grouping.max_buckets = 2 + static_cast<int>(rng.NextBounded(3));
  plan.budget = 1 + rng.NextBounded(6);
  plan.instance.budget = plan.budget;

  Result<datagen::Dataset> dataset = datagen::GenerateDataset(plan.config);
  if (!dataset.ok()) {
    log.Diverge("datagen failed: " + dataset.status().message());
    return;
  }
  Result<DiversificationInstance> instance =
      DiversificationInstance::Build(dataset->repository, plan.instance);
  if (!instance.ok()) {
    log.Diverge("instance build failed: " + instance.status().message());
    return;
  }
  if (Status adjacency = CheckAdjacency(instance.value()); !adjacency.ok()) {
    log.Diverge(adjacency.message());
    return;
  }

  // Every non-tiny round also selects the whole population: budget = user
  // count ends each run in the zero-gain tail (core/greedy.h), where the
  // greedy, customized and K=1 sharded paths must match the oracle too.
  std::vector<std::size_t> budgets = {plan.budget};
  if (!plan.tiny) budgets.push_back(dataset->repository.user_count());
  std::vector<Selection> oracles;  // one per budget
  for (const std::size_t budget : budgets) {
    Result<Selection> oracle = OracleGreedy(instance.value(), budget);
    Result<Selection> greedy = RunGreedy(instance.value(), budget);
    if (!oracle.ok() || !greedy.ok()) {
      log.Diverge("selector failed: " +
                  (!oracle.ok() ? oracle.status() : greedy.status()).message());
      return;
    }
    const std::string what = util::StringPrintf("greedy at budget %zu", budget);
    CompareWithOracle(log, what.c_str(), oracle.value(), greedy.value());
    for (const std::string& violation :
         CheckGreedyRun(instance.value(), greedy.value(), budget).violations) {
      log.Diverge("invariant: " + violation);
    }
    if (plan.tiny) {
      for (const std::string& violation :
           CheckApproximationRatio(instance.value(), greedy.value(), budget)
               .violations) {
        log.Diverge("approximation: " + violation);
      }
    }
    oracles.push_back(std::move(oracle).value());
  }

  // Customized path: a random priority group and (sometimes) a must_not
  // filter; at every budget the selection must match the oracle run over
  // the refined pool under the derived tiers.
  CustomizationFeedback feedback;
  const std::size_t num_groups = instance->groups().group_count();
  Result<CustomSelection> custom =
      Status::FailedPrecondition("customization not attempted");
  if (num_groups > 0) {
    feedback.priority.push_back(
        static_cast<GroupId>(rng.NextBounded(num_groups)));
    if (rng.NextBernoulli(0.5)) {
      feedback.must_not.push_back(
          static_cast<GroupId>(rng.NextBounded(num_groups)));
    }
    const Result<std::vector<UserId>> refined =
        RefineUsers(instance.value(), feedback);
    for (const std::size_t budget : budgets) {
      Result<CustomSelection> selected =
          SelectCustomized(instance.value(), feedback, budget);
      if (selected.ok() && refined.ok()) {
        Result<Selection> custom_oracle =
            OracleGreedy(instance.value(), budget, refined.value(),
                         TiersForPriority(num_groups, feedback.priority));
        const std::string what =
            util::StringPrintf("customized greedy at budget %zu", budget);
        if (custom_oracle.ok()) {
          CompareWithOracle(log, what.c_str(), custom_oracle.value(),
                            selected->selection);
        }
      }
      if (budget == plan.budget) custom = std::move(selected);
    }
  }

  // Thread × kernel-variant sweep: rebuild the index and rerun every
  // selector at each pool size, under forced-scalar and native kernel
  // dispatch; the determinism contract (DESIGN.md §7, §12) promises
  // byte-identical output at any thread count under either variant.
  const std::vector<kernels::Variant> variants =
      options.sweep_kernel_variants
          ? std::vector<kernels::Variant>{kernels::Variant::kScalar,
                                          kernels::Variant::kAvx2}
          : std::vector<kernels::Variant>{kernels::ActiveVariant()};
  for (const kernels::Variant requested : variants) {
    if (options.sweep_kernel_variants) kernels::ForceVariant(requested);
    // Forcing kAvx2 on a CPU without it demotes to scalar; report what ran.
    const std::string vname(kernels::VariantName(kernels::ActiveVariant()));
    for (const std::size_t threads : options.thread_counts) {
      util::ThreadPool::SetGlobalThreadCount(threads);
      Result<DiversificationInstance> rebuilt =
          DiversificationInstance::Build(dataset->repository, plan.instance);
      if (!rebuilt.ok()) {
        log.Diverge(util::StringPrintf(
            "instance rebuild failed at %zu threads (%s kernels)", threads,
            vname.c_str()));
        continue;
      }
      if (Status adjacency = CheckAdjacency(rebuilt.value());
          !adjacency.ok()) {
        log.Diverge(util::StringPrintf("at %zu threads (%s kernels): ",
                                       threads, vname.c_str()) +
                    adjacency.message());
      }
      Result<Selection> greedy_t = RunGreedy(rebuilt.value(), plan.budget);
      if (!greedy_t.ok()) {
        log.Diverge(util::StringPrintf(
            "selector failed at %zu threads (%s kernels)", threads,
            vname.c_str()));
        continue;
      }
      if (!SameSelection(greedy_t.value(), oracles.front())) {
        log.Diverge(util::StringPrintf(
            "greedy at %zu threads (%s kernels) selected %s", threads,
            vname.c_str(), UsersToString(greedy_t->users).c_str()));
      }
    }
  }
  kernels::ForceVariant(std::nullopt);

  if (options.with_serve) {
    CheckServePath(log, dataset.value(), plan, oracles.front(),
                   instance.value(), custom, feedback);
  }

  if (!options.shard_counts.empty()) {
    CheckShardedPath(log, dataset.value(), plan, instance.value(), budgets,
                     oracles, options);
  }
}

}  // namespace

DiffReport RunDifferential(const DiffOptions& options) {
  DiffReport report;
  const std::size_t prior_threads = util::ThreadPool::GlobalThreadCount();
  for (int round = 0; round < options.rounds; ++round) {
    RoundLog log{options.seed + static_cast<std::uint64_t>(round), &report};
    RunRound(log, options, round);
    ++report.rounds_run;
    util::ThreadPool::SetGlobalThreadCount(prior_threads);
  }
  return report;
}

}  // namespace podium::check
