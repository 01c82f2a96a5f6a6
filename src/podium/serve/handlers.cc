#include "podium/serve/handlers.h"

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "podium/json/writer.h"
#include "podium/obs/prometheus.h"
#include "podium/obs/trace.h"
#include "podium/serve/request.h"
#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/parse.h"
#include "podium/util/stopwatch.h"
#include "podium/util/string_util.h"

namespace podium::serve {

namespace {

HttpResponse JsonResponse(int status, const std::string& reason,
                          std::string body) {
  HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  json::Object root;
  root.Set("error", json::Value(std::string(StatusCodeToString(status.code()))));
  root.Set("message", json::Value(status.message()));
  const int http_status = HttpStatusFor(status);
  return JsonResponse(http_status, http_status >= 500 ? "Server Error" : "Error",
                      json::Write(json::Value(std::move(root))) + "\n");
}

HttpResponse HandleSelect(SelectionService& service,
                          const HttpRequest& request) {
  Result<json::Value> document =
      json::Parse(request.body, UntrustedParseOptions());
  if (!document.ok()) return ErrorResponse(document.status());
  Result<SelectionRequest> parsed = SelectionRequestFromJson(document.value());
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<ServiceReply> reply = service.Select(parsed.value());
  if (!reply.ok()) return ErrorResponse(reply.status());

  HttpResponse response = JsonResponse(200, "OK", std::move(reply->body));
  response.headers.emplace_back("X-Podium-Cache",
                                reply->cache_hit ? "hit" : "miss");
  if (reply->coalesced) {
    response.headers.emplace_back("X-Podium-Coalesced", "1");
  }
  response.headers.emplace_back(
      "X-Podium-Queue-Ms",
      util::FormatDouble(reply->queue_seconds * 1e3, 3));
  response.headers.emplace_back("X-Podium-Run-Ms",
                                util::FormatDouble(reply->run_seconds * 1e3, 3));
  response.headers.emplace_back(
      "X-Podium-Snapshot",
      util::StringPrintf("%llu", static_cast<unsigned long long>(
                                     reply->snapshot_generation)));
  return response;
}

HttpResponse HandleHealthz(SelectionService& service) {
  const std::shared_ptr<const Snapshot> snapshot = service.snapshot();
  json::Object root;
  root.Set("status", json::Value(snapshot ? "ok" : "loading"));
  if (snapshot) {
    root.Set("snapshot_generation",
             json::Value(static_cast<double>(snapshot->generation())));
    root.Set("snapshot_age_seconds", json::Value(snapshot->AgeSeconds()));
    root.Set("users", json::Value(snapshot->user_count()));
    root.Set("groups", json::Value(snapshot->group_count()));
    root.Set("memory_bytes",
             json::Value(static_cast<double>(snapshot->MemoryBytes())));
    const shard::ShardedSnapshot* sharded = snapshot->sharded();
    root.Set("shards",
             json::Value(sharded ? sharded->shard_count() : std::size_t{1}));
    if (sharded != nullptr) {
      json::Array shard_users;
      shard_users.reserve(sharded->shard_count());
      for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
        shard_users.emplace_back(
            static_cast<double>(sharded->shard(s).user_count()));
      }
      root.Set("shard_users", json::Value(std::move(shard_users)));
    }
  }
  return JsonResponse(snapshot ? 200 : 503, snapshot ? "OK" : "Loading",
                      json::Write(json::Value(std::move(root))) + "\n");
}

HttpResponse HandleMetrics(std::string_view query) {
  if (const std::optional<std::string_view> format =
          QueryParam(query, "format");
      format.has_value()) {
    if (*format == "prometheus") {
      HttpResponse response;
      response.status = 200;
      response.reason = "OK";
      response.headers.emplace_back("Content-Type",
                                    "text/plain; version=0.0.4");
      response.body = obs::RenderPrometheus(
          telemetry::MetricsRegistry::Global().Snapshot());
      return response;
    }
    if (*format != "json") {
      return ErrorResponse(Status::InvalidArgument(
          "unknown metrics format '" + std::string(*format) +
          "' (expected json or prometheus)"));
    }
  }
  json::WriteOptions options;
  options.indent = 2;
  return JsonResponse(
      200, "OK", json::Write(telemetry::TelemetryToJson(), options) + "\n");
}

json::Value SpanToJson(const obs::TraceSpan& span) {
  json::Object out;
  out.Set("name", json::Value(span.name));
  out.Set("parent", json::Value(static_cast<double>(span.parent)));
  out.Set("start_seconds", json::Value(span.start_seconds));
  out.Set("duration_seconds", json::Value(span.duration_seconds));
  if (!span.attributes.empty()) {
    json::Object attributes;
    for (const obs::SpanAttribute& attribute : span.attributes) {
      attributes.Set(attribute.key, json::Value(attribute.value));
    }
    out.Set("attributes", json::Value(std::move(attributes)));
  }
  return json::Value(std::move(out));
}

HttpResponse HandleTraces(std::string_view query) {
  std::size_t limit = 0;  // 0 = everything the ring retains
  if (const std::optional<std::string_view> raw = QueryParam(query, "limit");
      raw.has_value()) {
    const Result<std::size_t> parsed = util::ParseSize(*raw);
    if (!parsed.ok()) {
      return ErrorResponse(Status::InvalidArgument(
          "bad limit '" + std::string(*raw) + "': must be a non-negative "
          "integer"));
    }
    limit = parsed.value();
  }
  const std::vector<obs::FinishedTrace> traces =
      obs::TraceRing::Global().Snapshot(limit);
  json::Array items;
  items.reserve(traces.size());
  for (const obs::FinishedTrace& trace : traces) {
    json::Object item;
    item.Set("trace_id", json::Value(trace.trace_id));
    item.Set("method", json::Value(trace.method));
    item.Set("path", json::Value(trace.path));
    item.Set("status", json::Value(static_cast<double>(trace.http_status)));
    item.Set("start_unix_seconds", json::Value(trace.start_unix_seconds));
    item.Set("duration_seconds", json::Value(trace.total_seconds));
    json::Array spans;
    spans.reserve(trace.spans.size());
    for (const obs::TraceSpan& span : trace.spans) {
      spans.push_back(SpanToJson(span));
    }
    item.Set("spans", json::Value(std::move(spans)));
    items.push_back(json::Value(std::move(item)));
  }
  json::Object root;
  root.Set("capacity", json::Value(static_cast<double>(
                           obs::TraceRing::Global().capacity())));
  root.Set("count", json::Value(static_cast<double>(items.size())));
  root.Set("traces", json::Value(std::move(items)));
  return JsonResponse(200, "OK",
                      json::Write(json::Value(std::move(root))) + "\n");
}

HttpResponse HandleReload(const std::function<Status()>& reload) {
  if (!reload) {
    return ErrorResponse(
        Status::NotFound("reload is not configured for this server"));
  }
  const Status status = reload();
  if (!status.ok()) return ErrorResponse(status);
  return JsonResponse(200, "OK", "{\"status\":\"reloaded\"}\n");
}

/// Per-endpoint latency + per-status-code response count. `path_label` is
/// a known route or "other" — never the raw request target, so hostile
/// paths cannot mint unbounded metric names.
void RecordHttpMetrics(std::string_view path_label, int status,
                       double seconds) {
  if (!telemetry::Enabled()) return;
  auto& registry = telemetry::MetricsRegistry::Global();
  registry
      .histogram(util::StringPrintf("serve.http.request_seconds{path=\"%.*s\"}",
                                    static_cast<int>(path_label.size()),
                                    path_label.data()),
                 telemetry::DefaultLatencyBounds())
      .Observe(seconds);
  registry.counter(util::StringPrintf("serve.http.responses{code=\"%d\"}",
                                      status))
      .Add();
}

HttpResponse RouteRequest(SelectionService& service,
                          const std::function<Status()>& reload,
                          const HttpRequest& request, std::string_view path) {
  if (path == "/v1/select") {
    if (request.method != "POST") {
      return ErrorResponse(Status::InvalidArgument(
          "/v1/select requires POST"));
    }
    return HandleSelect(service, request);
  }
  if (path == "/healthz") {
    return HandleHealthz(service);
  }
  if (path == "/metrics") {
    return HandleMetrics(TargetQuery(request.target));
  }
  if (path == "/v1/traces") {
    return HandleTraces(TargetQuery(request.target));
  }
  if (path == "/v1/reload") {
    if (request.method != "POST") {
      return ErrorResponse(Status::InvalidArgument(
          "/v1/reload requires POST"));
    }
    return HandleReload(reload);
  }
  return ErrorResponse(
      Status::NotFound("no route for " + request.method + " " +
                       request.target));
}

}  // namespace

json::ParseOptions UntrustedParseOptions() {
  json::ParseOptions options;
  options.max_depth = 32;
  options.max_document_bytes = 1 << 20;   // 1 MiB
  options.max_total_nodes = 100000;
  return options;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

HttpServer::Handler MakeServiceHandler(SelectionService& service,
                                       std::function<Status()> reload) {
  return [&service, reload = std::move(reload)](const HttpRequest& request)
             -> HttpResponse {
    static constexpr std::string_view kRoutes[] = {
        "/v1/select", "/healthz", "/metrics", "/v1/traces", "/v1/reload"};
    const std::string_view path = TargetPath(request.target);
    std::string_view path_label = "other";
    for (const std::string_view route : kRoutes) {
      if (path == route) {
        path_label = route;
        break;
      }
    }
    util::Stopwatch watch;
    HttpResponse response = RouteRequest(service, reload, request, path);
    RecordHttpMetrics(path_label, response.status, watch.ElapsedSeconds());
    return response;
  };
}

}  // namespace podium::serve
