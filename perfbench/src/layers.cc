#include "layers.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "podium/core/customization.h"
#include "podium/core/explanation.h"
#include "podium/core/greedy.h"
#include "podium/json/parser.h"
#include "podium/profile/repository_io.h"
#include "podium/serve/handlers.h"
#include "podium/serve/request.h"
#include "podium/serve/result_cache.h"
#include "podium/serve/service.h"
#include "podium/shard/partitioner.h"
#include "podium/shard/scheme.h"
#include "podium/shard/sharded_selector.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/thread_pool.h"

namespace perfbench {

namespace {

using podium::Result;
using podium::Status;
namespace serve = podium::serve;
namespace shard = podium::shard;

/// Repetitions of every replayed call per distinct request (parsing is
/// cheap and repeated more).
constexpr int kReps = 3;
constexpr int kParseReps = 10;

/// Runs `fn`, records a span for it and returns its wall time in ms.
template <typename F>
double Timed(std::vector<Span>& spans, const char* name, std::uint64_t parent,
             std::uint64_t request, F&& fn) {
  const std::uint64_t id = NextSpanId();
  const double start = NowUs();
  fn();
  const double end = NowUs();
  spans.push_back(Span{id, parent, request, name, start, end});
  return (end - start) / 1e3;
}

Metric CountMetric(std::string name, const std::vector<double>& values) {
  Metric metric;
  metric.name = std::move(name);
  metric.unit = "count";
  metric.count = values.size();
  metric.value =
      values.empty() ? 0.0
                     : std::accumulate(values.begin(), values.end(), 0.0) /
                           static_cast<double>(values.size());
  return metric;
}

Metric SetupMetric(std::string name, double seconds, bool ran) {
  Metric metric;
  metric.name = std::move(name);
  metric.unit = "s";
  metric.value = ran ? seconds : 0.0;
  metric.count = ran ? 1 : 0;
  return metric;
}

/// The greedy work counters the core exports (telemetry on), read around
/// each selection call.
struct GreedyCounters {
  double rounds = 0;
  double retired_links = 0;
  double heap_pops = 0;

  static GreedyCounters Read() {
    auto& registry = podium::telemetry::MetricsRegistry::Global();
    return {static_cast<double>(registry.counter("greedy.rounds").Value()),
            static_cast<double>(
                registry.counter("greedy.retired_links").Value()),
            static_cast<double>(registry.counter("greedy.heap_pops").Value())};
  }
};

/// Per-selection work counts, from the counter deltas around one call.
struct WorkCounts {
  std::vector<double> rounds, users_scanned, retired_links, heap_pops;

  void Add(const GreedyCounters& before, const GreedyCounters& after,
           double pool) {
    const double r = after.rounds - before.rounds;
    rounds.push_back(r);
    // A plain-scan round visits every candidate still in the pool.
    users_scanned.push_back(r * pool - r * (r - 1) / 2);
    retired_links.push_back(after.retired_links - before.retired_links);
    heap_pops.push_back(after.heap_pops - before.heap_pops);
  }
};

/// The explanation blocks SelectionService attaches to an explain reply.
podium::json::Value Explanations(const podium::DiversificationInstance& instance,
                                 const std::vector<podium::UserId>& users) {
  podium::json::Array out;
  out.reserve(users.size());
  for (podium::UserId u : users) {
    const podium::UserExplanation explanation =
        podium::ExplainUser(instance, u);
    podium::json::Object user;
    user.Set("name", podium::json::Value(explanation.name));
    podium::json::Array groups;
    groups.reserve(explanation.groups.size());
    for (const podium::GroupExplanation& g : explanation.groups) {
      podium::json::Object group;
      group.Set("label", podium::json::Value(g.label));
      group.Set("weight", podium::json::Value(g.weight));
      group.Set("cov",
                podium::json::Value(static_cast<double>(g.required_coverage)));
      groups.emplace_back(std::move(group));
    }
    user.Set("groups", podium::json::Value(std::move(groups)));
    out.emplace_back(std::move(user));
  }
  return podium::json::Value(std::move(out));
}

Result<serve::SelectionRequest> ParseRequest(const std::string& body) {
  Result<podium::json::Value> document =
      podium::json::Parse(body, serve::UntrustedParseOptions());
  if (!document.ok()) return document.status();
  return serve::SelectionRequestFromJson(document.value());
}

/// Everything the replay measures, before it becomes metrics.
struct Ledger {
  std::vector<double> parse_us, write_us, lookup_us;
  std::vector<double> service_ms, service_self_ms, make_instance_ms;
  std::vector<double> greedy_ms, greedy_1t_ms;
  std::vector<double> refine_ms, custom_ms, refined_users, explain_ms;
  std::vector<double> shard_select_ms, round1_max_ms, round1_sum_ms,
      round1_skew, merge_ms, candidates;
  WorkCounts work;
  double service_total_ms = 0.0;
  double layers_total_ms = 0.0;
};

/// One request's layer calls, mirroring what SelectionService does for
/// it; returns the reply it serializes and the time of the calls the
/// service also makes (the instance build separately: the service's
/// instance pool may skip it).
struct LayerPass {
  std::string reply;
  double layers_ms = 0.0;
  double make_instance_ms = 0.0;
};

Result<LayerPass> UnshardedPass(const serve::Snapshot& snapshot,
                                const serve::SelectionRequest& request,
                                Ledger& ledger, std::vector<Span>& spans,
                                std::uint64_t root, std::uint64_t request_id) {
  LayerPass pass;
  serve::SelectionOutcome outcome;
  outcome.snapshot_generation = snapshot.generation();
  outcome.request = request;
  outcome.mode = request.mode;
  outcome.budget = request.budget > 0 ? request.budget
                                      : snapshot.options().instance.budget;
  outcome.weight_kind = request.weight_kind.value_or(
      snapshot.options().instance.weight_kind);
  outcome.coverage_kind = request.coverage_kind.value_or(
      snapshot.options().instance.coverage_kind);

  const podium::DiversificationInstance* instance =
      &snapshot.default_instance();
  std::optional<podium::DiversificationInstance> built;
  if (!snapshot.MatchesDefaultInstance(outcome.weight_kind,
                                       outcome.coverage_kind,
                                       outcome.budget)) {
    Status status = Status::Ok();
    pass.make_instance_ms =
        Timed(spans, "serve.make_instance", root, request_id, [&] {
          Result<podium::DiversificationInstance> made = snapshot.MakeInstance(
              outcome.weight_kind, outcome.coverage_kind, outcome.budget);
          if (made.ok()) {
            built = std::move(made).value();
          } else {
            status = made.status();
          }
        });
    if (!status.ok()) return status;
    instance = &*built;
    ledger.make_instance_ms.push_back(pass.make_instance_ms);
  }

  const double pool = static_cast<double>(instance->repository().user_count());
  if (request.customized()) {
    podium::CustomizationFeedback feedback;
    const auto resolve = [&](const std::vector<std::string>& labels,
                             std::vector<podium::GroupId>* out) -> Status {
      for (const std::string& label : labels) {
        Result<podium::GroupId> group = snapshot.ResolveLabel(label);
        if (!group.ok()) return group.status();
        out->push_back(group.value());
      }
      return Status::Ok();
    };
    PODIUM_RETURN_IF_ERROR(resolve(request.must_have, &feedback.must_have));
    PODIUM_RETURN_IF_ERROR(resolve(request.must_not, &feedback.must_not));
    PODIUM_RETURN_IF_ERROR(resolve(request.priority, &feedback.priority));

    Result<std::vector<podium::UserId>> refined = std::vector<podium::UserId>{};
    ledger.refine_ms.push_back(Timed(spans, "core.refine", root, request_id, [&] {
      refined = podium::RefineUsers(*instance, feedback);
    }));
    if (!refined.ok()) return refined.status();
    ledger.refined_users.push_back(static_cast<double>(refined->size()));

    Result<podium::CustomSelection> custom = Status::Internal("not run");
    const GreedyCounters before = GreedyCounters::Read();
    const double custom_ms = Timed(spans, "core.custom", root, request_id, [&] {
      custom = podium::SelectCustomized(*instance, feedback, outcome.budget,
                                        request.mode);
    });
    if (!custom.ok()) return custom.status();
    ledger.work.Add(before, GreedyCounters::Read(),
                    static_cast<double>(refined->size()));
    ledger.custom_ms.push_back(custom_ms);
    pass.layers_ms += custom_ms;
    outcome.users = std::move(custom->selection.users);
    outcome.score = custom->selection.score;
    outcome.custom_score = custom->score;
    outcome.refined_pool_size = custom->refined_pool_size;
  } else {
    podium::GreedyOptions options;
    options.mode = request.mode;
    Result<podium::Selection> selection = Status::Internal("not run");
    const GreedyCounters before = GreedyCounters::Read();
    const double greedy_ms = Timed(spans, "core.greedy", root, request_id, [&] {
      selection = podium::GreedySelector(options).Select(*instance,
                                                         outcome.budget);
    });
    if (!selection.ok()) return selection.status();
    ledger.work.Add(before, GreedyCounters::Read(), pool);
    ledger.greedy_ms.push_back(greedy_ms);
    pass.layers_ms += greedy_ms;
    outcome.users = std::move(selection->users);
    outcome.score = selection->score;
  }

  outcome.names.reserve(outcome.users.size());
  for (podium::UserId u : outcome.users) {
    outcome.names.push_back(snapshot.repository().user(u).name());
  }
  if (request.explain) {
    const double explain_ms =
        Timed(spans, "core.explain", root, request_id, [&] {
          outcome.explanations = Explanations(*instance, outcome.users);
        });
    ledger.explain_ms.push_back(explain_ms);
    pass.layers_ms += explain_ms;
  }
  const double write_ms = Timed(spans, "json.reply_write", root, request_id,
                                [&] { pass.reply = serve::SerializeOutcome(outcome); });
  ledger.write_us.push_back(write_ms * 1e3);
  pass.layers_ms += write_ms;
  return pass;
}

Result<LayerPass> ShardedPass(const serve::Snapshot& snapshot,
                              const serve::SelectionRequest& request,
                              Ledger& ledger, std::vector<Span>& spans,
                              std::uint64_t root, std::uint64_t request_id) {
  LayerPass pass;
  const shard::ShardedSnapshot& sharded = *snapshot.sharded();
  serve::SelectionOutcome outcome;
  outcome.snapshot_generation = snapshot.generation();
  outcome.request = request;
  outcome.mode = request.mode;
  outcome.budget = request.budget > 0 ? request.budget
                                      : snapshot.options().instance.budget;
  outcome.weight_kind = sharded.weight_kind();
  outcome.coverage_kind = sharded.coverage_kind();

  Result<shard::ShardedSelection> selection = Status::Internal("not run");
  const double select_ms = Timed(spans, "shard.select", root, request_id, [&] {
    selection = shard::ShardedSelector(request.mode).Select(sharded,
                                                            outcome.budget);
  });
  if (!selection.ok()) return selection.status();
  ledger.shard_select_ms.push_back(select_ms);
  pass.layers_ms += select_ms;
  double slowest = 0.0;
  double sum = 0.0;
  for (double seconds : selection->shard_seconds) {
    slowest = std::max(slowest, seconds);
    sum += seconds;
  }
  const double mean =
      sum / static_cast<double>(std::max<std::size_t>(
                1, selection->shard_seconds.size()));
  ledger.round1_max_ms.push_back(slowest * 1e3);
  ledger.round1_sum_ms.push_back(sum * 1e3);
  ledger.round1_skew.push_back(mean > 0 ? slowest / mean : 1.0);
  ledger.merge_ms.push_back(selection->merge_seconds * 1e3);
  ledger.candidates.push_back(static_cast<double>(selection->candidate_count));

  outcome.users = std::move(selection->merged.users);
  outcome.score = selection->merged.score;
  for (podium::UserId u : outcome.users) {
    Result<std::string> name = sharded.UserName(u);
    if (!name.ok()) return name.status();
    outcome.names.push_back(std::move(name).value());
  }
  const double write_ms = Timed(spans, "json.reply_write", root, request_id,
                                [&] { pass.reply = serve::SerializeOutcome(outcome); });
  ledger.write_us.push_back(write_ms * 1e3);
  pass.layers_ms += write_ms;

  // Round 1's greedy, one shard at a time, for the core's own numbers.
  const std::size_t pool_budget =
      std::max(sharded.options().pool_factor * outcome.budget, outcome.budget);
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const podium::DiversificationInstance& instance = sharded.shard(s).instance;
    podium::GreedyOptions options;
    options.mode = request.mode;
    Status status = Status::Ok();
    const GreedyCounters before = GreedyCounters::Read();
    ledger.greedy_ms.push_back(Timed(spans, "core.greedy", root, request_id, [&] {
      status = podium::GreedySelector(options).Select(instance, pool_budget).status();
    }));
    if (!status.ok()) return status;
    ledger.work.Add(before, GreedyCounters::Read(),
                    static_cast<double>(sharded.shard(s).user_count()));
  }
  return pass;
}

/// core.greedy_1t_ms: the same greedy calls with the global pool at
/// width 1.
Status GreedyAtWidthOne(const serve::Snapshot& snapshot,
                        const std::vector<serve::SelectionRequest>& requests,
                        Ledger& ledger, std::vector<Span>& spans) {
  podium::util::ThreadPool::SetGlobalThreadCount(1);
  Status status = Status::Ok();
  for (int rep = 0; rep < kReps && status.ok(); ++rep) {
    for (std::size_t i = 0; i < requests.size() && status.ok(); ++i) {
      const serve::SelectionRequest& request = requests[i];
      if (request.customized()) continue;
      const std::size_t budget = request.budget > 0
                                     ? request.budget
                                     : snapshot.options().instance.budget;
      podium::GreedyOptions options;
      options.mode = request.mode;
      const auto run = [&](const podium::DiversificationInstance& instance,
                           std::size_t b) {
        ledger.greedy_1t_ms.push_back(Timed(spans, "core.greedy_1t", 0, i + 1, [&] {
          status = podium::GreedySelector(options).Select(instance, b).status();
        }));
      };
      if (snapshot.is_sharded()) {
        const shard::ShardedSnapshot& sharded = *snapshot.sharded();
        const std::size_t pool_budget =
            std::max(sharded.options().pool_factor * budget, budget);
        for (std::size_t s = 0; s < sharded.shard_count() && status.ok(); ++s) {
          run(sharded.shard(s).instance, pool_budget);
        }
        continue;
      }
      const auto weight_kind = request.weight_kind.value_or(
          snapshot.options().instance.weight_kind);
      const auto coverage_kind = request.coverage_kind.value_or(
          snapshot.options().instance.coverage_kind);
      if (snapshot.MatchesDefaultInstance(weight_kind, coverage_kind, budget)) {
        run(snapshot.default_instance(), budget);
      } else {
        Result<podium::DiversificationInstance> made =
            snapshot.MakeInstance(weight_kind, coverage_kind, budget);
        if (!made.ok()) {
          status = made.status();
        } else {
          run(made.value(), budget);
        }
      }
    }
  }
  podium::util::ThreadPool::SetGlobalThreadCount(0);
  return status;
}

}  // namespace

Result<SnapshotPtr> LoadSnapshot(const WorkloadSpec& spec,
                                 const std::string& profiles,
                                 std::vector<Metric>* setup_layers,
                                 std::vector<Span>* spans) {
  std::vector<Span> local;
  std::vector<Span>& out = spans != nullptr ? *spans : local;
  const std::uint64_t root = NextSpanId();
  const double root_start = NowUs();

  Result<podium::ProfileRepository> repository =
      Status::Internal("not loaded");
  const double load_ms = Timed(out, "profile.load", root, 0, [&] {
    repository = podium::LoadRepositoryJson(profiles);
  });
  if (!repository.ok()) return repository.status();
  const podium::InstanceOptions& instance_options = spec.snapshot.instance;
  const bool sharded = spec.snapshot.shard.num_shards > 1;

  // The setup layers, each timed alone on the same repository (traced
  // run only); Snapshot::Build below repeats them as one call.
  double index_ms = 0.0;
  double instance_ms = 0.0;
  double partition_ms = 0.0;
  double sharded_ms = 0.0;
  if (setup_layers != nullptr) {
    Status status = Status::Ok();
    if (sharded) {
      index_ms = Timed(out, "groups.scheme_build", root, 0, [&] {
        status = shard::BuildGroupScheme(repository.value(),
                                         instance_options.grouping)
                     .status();
      });
      if (!status.ok()) return status;
      partition_ms = Timed(out, "shard.partition", root, 0, [&] {
        status = shard::Partitioner::Partition(repository.value(),
                                               spec.snapshot.shard)
                     .status();
      });
      if (!status.ok()) return status;
      sharded_ms = Timed(out, "shard.snapshot_build", root, 0, [&] {
        status = shard::ShardedSnapshot::Build(repository.value(),
                                               instance_options,
                                               spec.snapshot.shard, 1)
                     .status();
      });
    } else {
      index_ms = Timed(out, "groups.index_build", root, 0, [&] {
        status = podium::GroupIndex::Build(repository.value(),
                                           instance_options.grouping)
                     .status();
      });
      if (!status.ok()) return status;
      instance_ms = Timed(out, "core.instance_build", root, 0, [&] {
        status = podium::DiversificationInstance::Build(repository.value(),
                                                        instance_options)
                     .status();
      });
    }
    if (!status.ok()) return status;
  }

  Result<SnapshotPtr> snapshot = Status::Internal("not built");
  const double snapshot_ms = Timed(out, "serve.snapshot_build", root, 0, [&] {
    snapshot = serve::Snapshot::Build(std::move(repository).value(),
                                      spec.snapshot, /*generation=*/1);
  });
  if (!snapshot.ok()) return snapshot.status();
  out.push_back(Span{root, 0, 0, "setup", root_start, NowUs()});

  if (setup_layers != nullptr) {
    const serve::Snapshot& built = *snapshot.value();
    std::size_t links = 0;
    if (built.is_sharded()) {
      for (std::size_t s = 0; s < built.sharded()->shard_count(); ++s) {
        links += built.sharded()->shard(s).instance.groups().link_count();
      }
    } else {
      links = built.default_instance().groups().link_count();
    }
    // Self times: each enclosing call minus the layer calls inside it.
    const double served_ms = sharded ? sharded_ms : instance_ms;
    *setup_layers = {
        SetupMetric("profile.load_s", load_ms / 1e3, true),
        SetupMetric("groups.index_build_s", index_ms / 1e3, true),
        SetupMetric("core.instance_build_s", (instance_ms - index_ms) / 1e3,
                    !sharded),
        SetupMetric("serve.snapshot_build_s", (snapshot_ms - served_ms) / 1e3,
                    true),
        SetupMetric("shard.partition_s", partition_ms / 1e3, sharded),
        SetupMetric("shard.build_s",
                    (sharded_ms - index_ms - partition_ms) / 1e3, sharded),
        Metric{"serve.snapshot_mib",
               static_cast<double>(built.MemoryBytes()) / (1024.0 * 1024.0),
               "MiB"},
        Metric{"groups.links", static_cast<double>(links), "count"},
    };
  }
  return snapshot;
}

Result<std::vector<std::string>> ReferenceReplies(
    const SnapshotPtr& snapshot, const std::vector<std::string>& bodies) {
  podium::util::ThreadPool::SetGlobalThreadCount(1);
  serve::ServiceOptions options;
  options.cache_entries = 0;
  serve::SelectionService service(snapshot, options);
  std::vector<std::string> replies;
  Status status = Status::Ok();
  for (const std::string& body : bodies) {
    Result<serve::SelectionRequest> request = ParseRequest(body);
    Result<serve::ServiceReply> reply =
        request.ok() ? service.Select(request.value())
                     : Result<serve::ServiceReply>(request.status());
    if (!reply.ok()) {
      status = Status::Internal("reference for " + body +
                                " failed: " + reply.status().ToString());
      break;
    }
    replies.push_back(std::move(reply->body));
  }
  podium::util::ThreadPool::SetGlobalThreadCount(0);
  if (!status.ok()) return status;
  return replies;
}

std::uint64_t ReplyDigest(const std::vector<std::string>& bodies,
                          const std::vector<std::string>& replies) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xff;
    hash *= 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    mix(bodies[i]);
    mix(replies[i]);
  }
  return hash;
}

Result<ReplayResult> ReplayLayers(const WorkloadSpec& spec,
                                  const SnapshotPtr& snapshot,
                                  const RequestMix& mix,
                                  const std::vector<std::string>& references) {
  // The server runs with telemetry on; so does the replay.
  podium::telemetry::SetEnabled(true);
  ReplayResult result;
  Ledger ledger;

  std::vector<serve::SelectionRequest> requests;
  serve::ResultCache cache(spec.cache_entries);
  for (std::size_t i = 0; i < mix.bodies.size(); ++i) {
    Result<serve::SelectionRequest> request = ParseRequest(mix.bodies[i]);
    if (!request.ok()) return request.status();
    requests.push_back(request.value());
    cache.Put(serve::CanonicalRequestKey(snapshot->generation(), requests[i]),
              references[i]);
  }

  serve::ServiceOptions options;
  options.cache_entries = 0;
  serve::SelectionService service(snapshot, options);
  auto& reuse = podium::telemetry::MetricsRegistry::Global().counter(
      "serve.batch.instance_reuse");

  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t request_id = i + 1;
      const std::uint64_t root = NextSpanId();
      const double root_start = NowUs();
      std::vector<Span>& spans = result.spans;
      for (int k = 0; k < kParseReps; ++k) {
        Status status = Status::Ok();
        ledger.parse_us.push_back(
            1e3 * Timed(spans, "json.request_parse", root, request_id, [&] {
              status = ParseRequest(mix.bodies[i]).status();
            }));
        if (!status.ok()) return status;
      }
      const double lookup_ms =
          Timed(spans, "serve.cache_lookup", root, request_id, [&] {
            const std::string key =
                serve::CanonicalRequestKey(snapshot->generation(), requests[i]);
            static_cast<void>(cache.Get(key));
          });
      ledger.lookup_us.push_back(lookup_ms * 1e3);

      Result<LayerPass> pass =
          snapshot->is_sharded()
              ? ShardedPass(*snapshot, requests[i], ledger, spans, root,
                            request_id)
              : UnshardedPass(*snapshot, requests[i], ledger, spans, root,
                              request_id);
      if (!pass.ok()) return pass.status();
      if (rep == 0 && pass->reply != references[i]) ++result.mismatches;
      spans.push_back(Span{root, 0, request_id, "replay", root_start, NowUs()});

      const std::uint64_t reused_before = reuse.Value();
      Status status = Status::Ok();
      const double service_ms =
          Timed(spans, "serve.service", 0, request_id, [&] {
            status = service.Select(requests[i]).status();
          });
      if (!status.ok()) return status;
      // The service's instance pool may reuse an instance the replay
      // built; then the build is not part of this call.
      const double layers_ms =
          lookup_ms + pass->layers_ms +
          (reuse.Value() == reused_before ? pass->make_instance_ms : 0.0);
      ledger.service_ms.push_back(service_ms);
      ledger.service_self_ms.push_back(service_ms - layers_ms);
      ledger.service_total_ms += service_ms;
      ledger.layers_total_ms += layers_ms;
    }
  }
  PODIUM_RETURN_IF_ERROR(
      GreedyAtWidthOne(*snapshot, requests, ledger, result.spans));

  const double calls = static_cast<double>(ledger.service_ms.size());
  result.service_ms = ledger.service_total_ms / calls;
  result.unattributed_ms =
      (ledger.service_total_ms - ledger.layers_total_ms) / calls;
  const Metric greedy = TimingMetric("core.greedy_ms", "ms", ledger.greedy_ms);
  const Metric greedy_1t =
      TimingMetric("core.greedy_1t_ms", "ms", ledger.greedy_1t_ms);
  Metric pool_gain{"util.pool_gain_ms", greedy_1t.value - greedy.value, "ms"};
  pool_gain.count = std::min(greedy.count, greedy_1t.count);
  result.metrics = {
      TimingMetric("json.request_parse_us", "us", ledger.parse_us),
      TimingMetric("json.reply_write_us", "us", ledger.write_us),
      TimingMetric("serve.cache_lookup_us", "us", ledger.lookup_us),
      TimingMetric("serve.service_ms", "ms", ledger.service_ms),
      TimingMetric("serve.service_self_ms", "ms", ledger.service_self_ms),
      TimingMetric("serve.make_instance_ms", "ms", ledger.make_instance_ms),
      greedy,
      greedy_1t,
      CountMetric("core.rounds", ledger.work.rounds),
      CountMetric("core.users_scanned", ledger.work.users_scanned),
      CountMetric("core.retired_links", ledger.work.retired_links),
      CountMetric("core.heap_pops", ledger.work.heap_pops),
      TimingMetric("core.refine_ms", "ms", ledger.refine_ms),
      TimingMetric("core.custom_ms", "ms", ledger.custom_ms),
      CountMetric("core.refined_users", ledger.refined_users),
      TimingMetric("core.explain_ms", "ms", ledger.explain_ms),
      Metric{"util.pool_threads",
             static_cast<double>(
                 podium::util::ThreadPool::GlobalThreadCount()),
             "count"},
      pool_gain,
      TimingMetric("shard.select_ms", "ms", ledger.shard_select_ms),
      TimingMetric("shard.round1_max_ms", "ms", ledger.round1_max_ms),
      TimingMetric("shard.round1_sum_ms", "ms", ledger.round1_sum_ms),
      TimingMetric("shard.round1_skew", "ratio", ledger.round1_skew),
      TimingMetric("shard.merge_ms", "ms", ledger.merge_ms),
      CountMetric("shard.candidates", ledger.candidates),
  };
  return result;
}

}  // namespace perfbench
