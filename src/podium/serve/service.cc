#include "podium/serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "podium/core/explanation.h"
#include "podium/obs/metrics.h"
#include "podium/obs/trace.h"
#include "podium/shard/sharded_selector.h"

namespace podium::serve {

namespace {

/// Request outcome counters. Timings are the select / cache.lookup /
/// admission / run spans' histograms.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& rejected;
  obs::Counter& deadline_exceeded;

  static ServeMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static ServeMetrics metrics{registry.counter("serve.requests"),
                                registry.counter("serve.errors"),
                                registry.counter("serve.rejected"),
                                registry.counter("serve.deadline_exceeded")};
    return metrics;
  }
};

Result<std::vector<GroupId>> ResolveLabels(
    const Snapshot& snapshot, const std::vector<std::string>& labels) {
  std::vector<GroupId> groups;
  groups.reserve(labels.size());
  for (const std::string& label : labels) {
    Result<GroupId> group = snapshot.ResolveLabel(label);
    if (!group.ok()) return group.status();
    groups.push_back(group.value());
  }
  return groups;
}

json::Value BuildExplanations(const DiversificationInstance& instance,
                              const std::vector<UserId>& users) {
  json::Array out;
  out.reserve(users.size());
  for (UserId u : users) {
    const UserExplanation explanation = ExplainUser(instance, u);
    json::Object user;
    user.Set("name", json::Value(explanation.name));
    json::Array groups;
    groups.reserve(explanation.groups.size());
    for (const GroupExplanation& g : explanation.groups) {
      json::Object group;
      group.Set("label", json::Value(g.label));
      group.Set("weight", json::Value(g.weight));
      group.Set("cov",
                json::Value(static_cast<double>(g.required_coverage)));
      groups.emplace_back(std::move(group));
    }
    user.Set("groups", json::Value(std::move(groups)));
    out.emplace_back(std::move(user));
  }
  return json::Value(std::move(out));
}

}  // namespace

SelectionService::SelectionService(std::shared_ptr<const Snapshot> snapshot,
                                   ServiceOptions options)
    : options_(std::move(options)), holder_(std::move(snapshot)),
      cache_(options_.cache_entries) {}

void SelectionService::SwapSnapshot(std::shared_ptr<const Snapshot> snapshot) {
  holder_.Swap(std::move(snapshot));
}

Status SelectionService::Admit(std::int64_t deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  util::MutexLock lock(mutex_);
  if (running_ < options_.max_concurrency) {
    ++running_;
    return Status::Ok();
  }
  if (waiting_ >= options_.max_queue_depth) {
    ServeMetrics::Get().rejected.Add();
    return Status::ResourceExhausted("admission queue full");
  }
  ++waiting_;
  bool admitted = true;
  if (deadline_ms > 0) {
    const auto deadline = start + std::chrono::milliseconds(deadline_ms);
    while (running_ >= options_.max_concurrency) {
      if (!slot_free_.WaitUntil(lock, deadline)) {
        // Timed out: one final check, a slot may have freed on the way in.
        admitted = running_ < options_.max_concurrency;
        break;
      }
    }
  } else {
    while (running_ >= options_.max_concurrency) slot_free_.Wait(lock);
  }
  --waiting_;
  if (!admitted) {
    ServeMetrics::Get().deadline_exceeded.Add();
    return Status::DeadlineExceeded(
        "deadline expired before an execution slot freed up");
  }
  ++running_;
  return Status::Ok();
}

void SelectionService::Release() {
  {
    util::MutexLock lock(mutex_);
    --running_;
  }
  slot_free_.NotifyOne();
}

Result<ServiceReply> SelectionService::Select(const SelectionRequest& request) {
  ServeMetrics::Get().requests.Add();
  obs::Span select_span("select");

  const std::shared_ptr<const Snapshot> snapshot = holder_.Current();
  if (snapshot == nullptr) {
    ServeMetrics::Get().errors.Add();
    return Status::FailedPrecondition("no snapshot loaded");
  }

  ServiceReply reply;
  reply.snapshot_generation = snapshot->generation();

  const std::string key = CanonicalRequestKey(snapshot->generation(), request);
  {
    obs::Span lookup_span("cache.lookup");
    std::optional<std::string> cached = cache_.Get(key);
    if (cached.has_value()) {
      reply.body = std::move(*cached);
      reply.cache_hit = true;
      return reply;
    }
  }

  // Deadline: the request may tighten the server default freely but only
  // loosen it up to 10x (a hostile client cannot pin a queue slot forever).
  std::int64_t deadline_ms = options_.default_deadline_ms;
  if (request.deadline_ms > 0) {
    deadline_ms = options_.default_deadline_ms > 0
                      ? std::min(request.deadline_ms,
                                 10 * options_.default_deadline_ms)
                      : request.deadline_ms;
  }

  // Single-flight the miss: if an identical request (same canonical key,
  // so same generation + parameters) is already past the cache and
  // running, park here and share its result — errors included — instead
  // of stampeding N copies of the same selection through the admission
  // queue. Followers do not hold execution slots while parked.
  SingleFlight::Outcome flight = single_flight_.Do(key, [&]()
                                                       -> Result<std::string> {
    Status admitted = [&] {
      obs::Span admission_span("admission");
      Status status = Admit(deadline_ms);
      reply.queue_seconds = admission_span.ElapsedSeconds();
      return status;
    }();
    if (!admitted.ok()) return admitted;
    // Exception-safe release: selector code returns Status, but anything
    // escaping (e.g. bad_alloc through ParallelFor) must not leak the slot.
    struct SlotGuard {
      SelectionService* service;
      ~SlotGuard() { service->Release(); }
    } slot_guard{this};
    if (options_.post_admission_hook) options_.post_admission_hook();

    Result<std::string> body = [&] {
      obs::Span run_span("run");
      Result<std::string> run = RunSelection(*snapshot, request);
      reply.run_seconds = run_span.ElapsedSeconds();
      return run;
    }();
    if (body.ok()) cache_.Put(key, body.value());
    return body;
  });

  reply.coalesced = flight.shared;
  if (!flight.status.ok()) {
    ServeMetrics::Get().errors.Add();
    return flight.status;
  }
  reply.body = std::move(flight.value);
  return reply;
}

Result<std::shared_ptr<const DiversificationInstance>>
SelectionService::PooledInstance(const Snapshot& snapshot,
                                 WeightKind weight_kind,
                                 CoverageKind coverage_kind,
                                 std::size_t budget) {
  // Budget does not change the built instance under Single coverage with
  // non-EBS weights (same rule MatchesDefaultInstance applies), so those
  // keys collapse onto one entry.
  const std::size_t key_budget =
      coverage_kind == CoverageKind::kSingle && weight_kind != WeightKind::kEbs
          ? 0
          : budget;
  const std::uint64_t generation = snapshot.generation();
  {
    util::MutexLock lock(instance_mutex_);
    for (PooledEntry& entry : instance_pool_) {
      if (entry.generation == generation &&
          entry.weight_kind == weight_kind &&
          entry.coverage_kind == coverage_kind &&
          entry.budget == key_budget) {
        entry.last_used = ++instance_pool_clock_;
        obs::MetricsRegistry::Global()
            .counter("serve.batch.instance_reuse")
            .Add();
        return entry.instance;
      }
    }
  }

  // Build outside the lock: a slow build must not stall requests pooling
  // *different* instances. Two racing builders of the same key build
  // twice and the loser's insert below finds the winner's entry — wasted
  // work, never a wrong result (single-flight upstream already collapses
  // identical requests, so the race needs distinct requests sharing
  // instance parameters in the same instant).
  Result<DiversificationInstance> built =
      snapshot.MakeInstance(weight_kind, coverage_kind, budget);
  if (!built.ok()) return built.status();
  auto instance = std::make_shared<const DiversificationInstance>(
      std::move(built).value());

  util::MutexLock lock(instance_mutex_);
  for (PooledEntry& entry : instance_pool_) {
    if (entry.generation == generation && entry.weight_kind == weight_kind &&
        entry.coverage_kind == coverage_kind && entry.budget == key_budget) {
      entry.last_used = ++instance_pool_clock_;
      return entry.instance;  // lost the race; drop our duplicate
    }
  }
  // A snapshot swap obsoletes every pooled instance at once: entries from
  // other generations are dead weight, so clear rather than LRU-evict.
  constexpr std::size_t kMaxPooledInstances = 8;
  bool stale = false;
  for (const PooledEntry& entry : instance_pool_) {
    if (entry.generation != generation) stale = true;
  }
  if (stale) instance_pool_.clear();
  if (instance_pool_.size() >= kMaxPooledInstances) {
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < instance_pool_.size(); ++i) {
      if (instance_pool_[i].last_used < instance_pool_[oldest].last_used) {
        oldest = i;
      }
    }
    instance_pool_[oldest] = instance_pool_.back();
    instance_pool_.pop_back();
  }
  PooledEntry entry;
  entry.generation = generation;
  entry.weight_kind = weight_kind;
  entry.coverage_kind = coverage_kind;
  entry.budget = key_budget;
  entry.last_used = ++instance_pool_clock_;
  entry.instance = instance;
  instance_pool_.push_back(std::move(entry));
  return instance;
}

Result<std::string> SelectionService::RunSelection(
    const Snapshot& snapshot, const SelectionRequest& request) {
  SelectionOutcome outcome;
  outcome.snapshot_generation = snapshot.generation();
  outcome.request = request;
  outcome.budget =
      request.budget > 0 ? request.budget : snapshot.options().instance.budget;
  outcome.weight_kind = request.weight_kind.value_or(
      snapshot.options().instance.weight_kind);
  outcome.coverage_kind = request.coverage_kind.value_or(
      snapshot.options().instance.coverage_kind);

  if (snapshot.is_sharded()) {
    return RunShardedSelection(snapshot, request, outcome);
  }

  // Reuse the shared prebuilt instance whenever the request's parameters
  // resolve to it; otherwise fetch (or build) the per-parameter instance
  // from the pool so a batch of requests with the same overrides pays for
  // one build. Either way only weights/coverage are re-evaluated over the
  // shared CSR group index (never the grouping itself).
  std::shared_ptr<const DiversificationInstance> pooled;
  const DiversificationInstance* instance = &snapshot.default_instance();
  if (!snapshot.MatchesDefaultInstance(outcome.weight_kind,
                                       outcome.coverage_kind,
                                       outcome.budget)) {
    Result<std::shared_ptr<const DiversificationInstance>> built =
        PooledInstance(snapshot, outcome.weight_kind, outcome.coverage_kind,
                       outcome.budget);
    if (!built.ok()) return built.status();
    pooled = std::move(built).value();
    instance = pooled.get();
  }

  if (request.customized()) {
    CustomizationFeedback feedback;
    PODIUM_ASSIGN_OR_RETURN(feedback.must_have,
                            ResolveLabels(snapshot, request.must_have));
    PODIUM_ASSIGN_OR_RETURN(feedback.must_not,
                            ResolveLabels(snapshot, request.must_not));
    PODIUM_ASSIGN_OR_RETURN(feedback.priority,
                            ResolveLabels(snapshot, request.priority));
    Result<CustomSelection> custom =
        SelectCustomized(*instance, feedback, outcome.budget);
    if (!custom.ok()) return custom.status();
    outcome.users = std::move(custom->selection.users);
    outcome.score = custom->selection.score;
    outcome.custom_score = custom->score;
    outcome.refined_pool_size = custom->refined_pool_size;
  } else {
    Result<Selection> selection =
        GreedySelector().Select(*instance, outcome.budget);
    if (!selection.ok()) return selection.status();
    outcome.users = std::move(selection->users);
    outcome.score = selection->score;
  }

  outcome.names.reserve(outcome.users.size());
  for (UserId u : outcome.users) {
    outcome.names.push_back(snapshot.repository().user(u).name());
  }
  if (request.explain) {
    outcome.explanations = BuildExplanations(*instance, outcome.users);
  }
  return SerializeOutcome(outcome);
}

Result<std::string> SelectionService::RunShardedSelection(
    const Snapshot& snapshot, const SelectionRequest& request,
    SelectionOutcome& outcome) {
  const shard::ShardedSnapshot& sharded = *snapshot.sharded();
  // The sharded engine bakes the snapshot's global weights/coverage into
  // every shard, so per-request scoring overrides would need K instance
  // rebuilds — serve them from an unsharded deployment instead. A budget
  // override is fine whenever it does not change the instance (Single
  // coverage; EBS is rejected at build).
  if (request.customized() || request.explain) {
    return Status::Unimplemented(
        "customization and explanations are not supported with --shards>1");
  }
  if (outcome.weight_kind != sharded.weight_kind() ||
      outcome.coverage_kind != sharded.coverage_kind()) {
    return Status::Unimplemented(
        "per-request weight/coverage overrides are not supported with "
        "--shards>1 (the global scoring is baked into every shard)");
  }
  if (outcome.budget != sharded.default_budget() &&
      outcome.coverage_kind != CoverageKind::kSingle) {
    return Status::Unimplemented(
        "budget overrides under Prop coverage are not supported with "
        "--shards>1 (cov(G) depends on B, which is baked into every shard)");
  }

  Result<shard::ShardedSelection> selection =
      shard::ShardedSelector().Select(sharded, outcome.budget);
  if (!selection.ok()) return selection.status();
  outcome.users = std::move(selection->merged.users);
  outcome.score = selection->merged.score;

  outcome.names.reserve(outcome.users.size());
  for (UserId u : outcome.users) {
    Result<std::string> name = sharded.UserName(u);
    if (!name.ok()) return name.status();
    outcome.names.push_back(std::move(name).value());
  }
  return SerializeOutcome(outcome);
}

}  // namespace podium::serve
