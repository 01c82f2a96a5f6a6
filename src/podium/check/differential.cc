#include "podium/check/differential.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "podium/check/invariants.h"
#include "podium/check/oracle.h"
#include "podium/core/customization.h"
#include "podium/core/greedy.h"
#include "podium/core/kernels.h"
#include "podium/datagen/generator.h"
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

/// A quote, a backslash, control bytes with and without a short escape,
/// and two- and three-byte UTF-8.
constexpr std::string_view kEscapedSuffix =
    " \"q\\ \x01\t\x1f\n \xc3\xa9 \xe2\x9c\x93";

/// `repository` with kEscapedSuffix appended to every user name and every
/// property label; ids and scores unchanged.
Result<ProfileRepository> WithEscapedNames(
    const ProfileRepository& repository) {
  ProfileRepository out;
  const PropertyTable& properties = repository.properties();
  for (PropertyId p = 0; p < properties.size(); ++p) {
    out.properties().Intern(properties.Label(p) + std::string(kEscapedSuffix),
                            properties.Kind(p));
  }
  for (UserId u = 0; u < repository.user_count(); ++u) {
    const UserProfile& user = repository.user(u);
    PODIUM_ASSIGN_OR_RETURN(
        const UserId id, out.AddUser(user.name() + std::string(kEscapedSuffix)));
    PODIUM_RETURN_IF_ERROR(out.SetScores(id, user.entries()));
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

/// The outcome the service must serialize for `request` (at the round's
/// budget) on the round's snapshot, whose generation is the round seed,
/// given the selection it must make.
serve::SelectionOutcome ExpectedOutcome(const RoundLog& log,
                                        const RoundPlan& plan,
                                        const serve::SelectionRequest& request,
                                        const Selection& selection,
                                        const ProfileRepository& repository) {
  serve::SelectionOutcome outcome;
  outcome.snapshot_generation = log.seed;
  outcome.request = request;
  outcome.budget = plan.budget;
  outcome.weight_kind =
      request.weight_kind.value_or(plan.instance.weight_kind);
  outcome.coverage_kind =
      request.coverage_kind.value_or(plan.instance.coverage_kind);
  outcome.users = selection.users;
  outcome.score = selection.score;
  for (UserId u : selection.users) {
    outcome.names.push_back(repository.user(u).name());
  }
  return outcome;
}

/// A served body must equal the reference reply byte for byte. A
/// divergence names the first differing byte and quotes both sides there.
void CompareReply(RoundLog& log, const std::string& what,
                  const Result<serve::ServiceReply>& reply,
                  const std::string& reference) {
  if (!reply.ok()) {
    log.Diverge(what + " failed: " + reply.status().message());
    return;
  }
  const std::string& body = reply->body;
  if (body == reference) return;
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(body.begin(), body.end(), reference.begin(),
                    reference.end())
          .first -
      body.begin());
  const std::size_t from = at < 40 ? 0 : at - 40;
  log.Diverge(util::StringPrintf(
      "%s differs from the reference reply at byte %zu (%zu vs %zu bytes): "
      "served ...%s... reference ...%s...",
      what.c_str(), at, body.size(), reference.size(),
      body.substr(from, 80).c_str(), reference.substr(from, 80).c_str()));
}

/// Runs the serve path over `plan` and diffs every served body against
/// ReferenceReply over the already-verified direct selections.
void CheckServePath(RoundLog& log, const datagen::Dataset& dataset,
                    const RoundPlan& plan, const Selection& oracle,
                    const DiversificationInstance& instance,
                    const DiversificationInstance& ebs,
                    const Selection& ebs_selection,
                    const Result<CustomSelection>& custom,
                    const CustomizationFeedback& feedback) {
  const ProfileRepository& repository = dataset.repository;
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
    CompareReply(log, "serve default reply", first,
                 ReferenceReply(
                     ExpectedOutcome(log, plan, request, oracle, repository),
                     nullptr));
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
    const std::string reference = ReferenceReply(
        ExpectedOutcome(log, plan, request, oracle, repository), nullptr);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < kCallers; ++i) {
      if (!replies[i].has_value()) {
        log.Diverge("single-flight reply never arrived");
        continue;
      }
      if (replies[i]->ok() && replies[i]->value().coalesced) ++shared;
      CompareReply(log, util::StringPrintf("single-flight caller %zu", i),
                   *replies[i], reference);
    }
    if (shared != kCallers - 1) {
      log.Diverge(util::StringPrintf(
          "single-flight shared %zu of %zu replies (want %zu)", shared,
          kCallers, kCallers - 1));
    }
  }

  // Weight overrides through the wire, plain and explained: the service
  // builds its own instance over the snapshot's groups, which must select
  // and explain what the round's instances do. Iden and LBS selections
  // come from the oracle; EBS from the direct selector, already checked
  // against OracleEbsGreedy. Saturated EBS weights and scores print null.
  // Under Iden every weight ties, so group order is groups_of order.
  for (const WeightKind kind :
       {WeightKind::kIden, WeightKind::kLbs, WeightKind::kEbs}) {
    const std::string name(WeightKindName(kind));
    const DiversificationInstance* explain = &ebs;
    Selection selection = ebs_selection;
    DiversificationInstance scalar;
    if (kind != WeightKind::kEbs) {
      Result<DiversificationInstance> built =
          DiversificationInstance::FromGroups(repository, instance.groups(),
                                              kind,
                                              plan.instance.coverage_kind,
                                              plan.budget);
      Result<Selection> selected =
          built.ok() ? OracleGreedy(built.value(), plan.budget)
                     : Result<Selection>(built.status());
      if (!selected.ok()) {
        log.Diverge(name + " reference selection failed: " +
                    selected.status().message());
        continue;
      }
      scalar = std::move(built).value();
      selection = std::move(selected).value();
      explain = &scalar;
    }
    for (const bool explained : {false, true}) {
      serve::SelectionRequest request;
      request.budget = plan.budget;
      request.weight_kind = kind;
      request.coverage_kind = plan.instance.coverage_kind;
      request.explain = explained;
      CompareReply(
          log, "serve " + name + (explained ? " explain" : "") + " override",
          uncached.Select(request),
          ReferenceReply(
              ExpectedOutcome(log, plan, request, selection, repository),
              explain));
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
    serve::SelectionOutcome outcome =
        ExpectedOutcome(log, plan, request, custom->selection, repository);
    outcome.custom_score = custom->score;
    outcome.refined_pool_size = custom->refined_pool_size;
    CompareReply(log, "serve customized reply", uncached.Select(request),
                 ReferenceReply(outcome, nullptr));
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
      const serve::SelectionOutcome expected = ExpectedOutcome(
          log, plan, request, *reference, dataset.repository);
      CompareReply(log, tag + ": sharded serve reply", first,
                   ReferenceReply(expected, nullptr));
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

/// The round's EBS legs: `ebs` has the round's groups, coverage and budget
/// under wei(G) = (B+1)^ord(G). At every budget of the round, the greedy
/// must select exactly what OracleEbsGreedy does on the full pool, on two
/// restricted pools and under a random tie_break_order. Returns the
/// full-pool selection at the round's budget, for the serve check.
Selection CheckEbsGreedy(RoundLog& log, const DiversificationInstance& ebs,
                         const std::vector<std::size_t>& budgets) {
  // A stream of its own, so the scalar legs draw what they always drew.
  util::Rng rng(log.seed ^ 0x4542530000000000ULL);
  const std::size_t num_users = ebs.repository().user_count();
  std::vector<UserId> order(num_users);
  for (UserId u = 0; u < num_users; ++u) order[u] = u;
  rng.Shuffle(order);
  // About half the users; and the 3-6 users in the fewest groups, whose
  // summed adjacency is smaller than the large groups, so their rounds
  // finish from that adjacency, and whose short rank sequences often
  // share a prefix. Both in shuffled order, with the first user repeated.
  std::vector<UserId> half;
  for (UserId u = 0; u < num_users; ++u) {
    if (rng.NextBernoulli(0.5)) half.push_back(order[u]);
  }
  std::vector<UserId> few = order;
  std::stable_sort(few.begin(), few.end(), [&](UserId a, UserId b) {
    return ebs.groups().groups_of(a).size() < ebs.groups().groups_of(b).size();
  });
  few.resize(std::min<std::size_t>(3 + rng.NextBounded(4), num_users));
  rng.Shuffle(few);
  rng.Shuffle(order);
  for (std::vector<UserId>* pool : {&half, &few}) {
    if (pool->empty()) pool->push_back(0);
    pool->push_back(pool->front());
  }

  struct Leg {
    const char* name;
    std::vector<UserId> pool;
    std::vector<UserId> tie_order;
  };
  const Leg legs[] = {{"full pool", {}, {}},
                      {"restricted pool", half, {}},
                      {"small pool", few, {}},
                      {"random tie order", {}, order}};
  Selection served_reference;
  for (const std::size_t budget : budgets) {
    for (const Leg& leg : legs) {
      GreedyOptions options;
      options.candidate_pool = leg.pool;
      options.tie_break_order = leg.tie_order;
      Result<Selection> greedy = GreedySelector(options).Select(ebs, budget);
      Result<std::vector<UserId>> oracle =
          OracleEbsGreedy(ebs, budget, leg.pool, leg.tie_order);
      const std::string what =
          util::StringPrintf("EBS greedy (%s) at budget %zu", leg.name, budget);
      if (!greedy.ok() || !oracle.ok()) {
        log.Diverge(what + " failed: " +
                    (!greedy.ok() ? greedy.status() : oracle.status())
                        .message());
        continue;
      }
      if (greedy->users != oracle.value()) {
        log.Diverge(util::StringPrintf(
            "%s selected %s, oracle %s", what.c_str(),
            UsersToString(greedy->users).c_str(),
            UsersToString(oracle.value()).c_str()));
      }
      if (budget == budgets.front() && leg.pool.empty() &&
          leg.tie_order.empty()) {
        served_reference = greedy.value();
      }
    }
  }
  return served_reference;
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
  // Every fourth seed renames its users and properties, and so its group
  // labels, to hold bytes every served reply must escape as the reference
  // does.
  if (log.seed % 4 == 2) {
    Result<ProfileRepository> escaped = WithEscapedNames(dataset->repository);
    if (!escaped.ok()) {
      log.Diverge("renaming failed: " + escaped.status().message());
      return;
    }
    dataset->repository = std::move(escaped).value();
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

  // The same groups, coverage and budget under EBS weights.
  Result<DiversificationInstance> ebs = DiversificationInstance::FromGroups(
      dataset->repository, instance->groups(), WeightKind::kEbs,
      plan.instance.coverage_kind, plan.budget);
  if (!ebs.ok()) {
    log.Diverge("EBS instance build failed: " + ebs.status().message());
    return;
  }
  const Selection ebs_selection = CheckEbsGreedy(log, ebs.value(), budgets);

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
                   instance.value(), ebs.value(), ebs_selection, custom,
                   feedback);
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
