// End-to-end tests of the HTTP front end: a real HttpServer on an
// ephemeral port, driven through HttpClient over loopback.

#include "podium/serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/json/parser.h"
#include "podium/obs/trace.h"
#include "podium/serve/handlers.h"
#include "podium/serve/service.h"
#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"
#include "tests/testing/table2.h"

namespace podium::serve {
namespace {

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::ResetAllTelemetry();

    SnapshotOptions snapshot_options;
    snapshot_options.instance.budget = 3;
    Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Build(
        podium::testing::MakeTable2Repository(), snapshot_options,
        /*generation=*/1);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    service_ = std::make_unique<SelectionService>(std::move(snapshot).value(),
                                                  ServiceOptions{});

    HttpServerOptions http_options;
    http_options.port = 0;  // ephemeral
    http_options.worker_threads = 4;
    server_ = std::make_unique<HttpServer>(http_options,
                                           MakeServiceHandler(*service_));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    telemetry::SetEnabled(false);
    telemetry::ResetAllTelemetry();
  }

  HttpResponse RoundTrip(HttpClient& client, const std::string& method,
                         const std::string& target, std::string body = "") {
    if (!client.connected()) {
      const Status connected = client.Connect("127.0.0.1", server_->port());
      EXPECT_TRUE(connected.ok()) << connected;
    }
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = std::move(body);
    Result<HttpResponse> response = client.RoundTrip(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? std::move(response).value() : HttpResponse{};
  }

  /// A second server over the same service, with caller-chosen options —
  /// for tests that need a specific worker count or an injected accept.
  std::unique_ptr<HttpServer> MakeServer(HttpServerOptions options) {
    options.port = 0;
    auto server = std::make_unique<HttpServer>(std::move(options),
                                               MakeServiceHandler(*service_));
    EXPECT_TRUE(server->Start().ok());
    EXPECT_GT(server->port(), 0);
    return server;
  }

  /// A raw loopback TCP connection, for driving the server with exact
  /// bytes (partial requests, HTTP/1.0) that HttpClient cannot produce.
  static int ConnectRaw(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    // podium-lint: allow(intrinsics-scope)
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0);
    return fd;
  }

  std::unique_ptr<SelectionService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, HealthzReportsSnapshot) {
  HttpClient client;
  const HttpResponse response = RoundTrip(client, "GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("status")->AsString(), "ok");
  EXPECT_EQ(body->AsObject().Find("users")->AsNumber(), 5.0);
  EXPECT_EQ(body->AsObject().Find("snapshot_generation")->AsNumber(), 1.0);
  // The snapshot was built moments ago; its age is tiny but non-negative.
  const json::Value* age = body->AsObject().Find("snapshot_age_seconds");
  ASSERT_NE(age, nullptr);
  EXPECT_GE(age->AsNumber(), 0.0);
  EXPECT_LT(age->AsNumber(), 300.0);
}

TEST_F(HttpServerTest, SelectMissThenByteIdenticalCachedHit) {
  HttpClient client;
  const HttpResponse first =
      RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})");
  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_NE(first.FindHeader("X-Podium-Cache"), nullptr);
  EXPECT_EQ(*first.FindHeader("X-Podium-Cache"), "miss");
  EXPECT_EQ(*first.FindHeader("X-Podium-Snapshot"), "1");
  Result<json::Value> body = json::Parse(first.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("users")->AsArray().size(), 2u);

  const HttpResponse second =
      RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})");
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(*second.FindHeader("X-Podium-Cache"), "hit");
  // The cached body is byte-identical; timings travel only in headers.
  EXPECT_EQ(second.body, first.body);
  EXPECT_NE(second.FindHeader("X-Podium-Run-Ms"), nullptr);
  EXPECT_NE(second.FindHeader("X-Podium-Queue-Ms"), nullptr);
}

TEST_F(HttpServerTest, MalformedJsonIs400) {
  HttpClient client;
  const HttpResponse response =
      RoundTrip(client, "POST", "/v1/select", "{\"budget\": ");
  EXPECT_EQ(response.status, 400);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("error")->AsString(), "ParseError");
}

TEST_F(HttpServerTest, UnknownFieldIs400) {
  HttpClient client;
  const HttpResponse response =
      RoundTrip(client, "POST", "/v1/select", R"({"budgetz": 2})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("budgetz"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownLabelIs404) {
  HttpClient client;
  const HttpResponse response = RoundTrip(
      client, "POST", "/v1/select", R"({"must_have": ["livesIn Atlantis"]})");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("livesIn Atlantis"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownRouteIs404AndWrongMethodIs400) {
  HttpClient client;
  EXPECT_EQ(RoundTrip(client, "GET", "/v2/select").status, 404);
  EXPECT_EQ(RoundTrip(client, "GET", "/v1/select").status, 400);
  // Reload was not configured for this server.
  EXPECT_EQ(RoundTrip(client, "POST", "/v1/reload").status, 404);
}

TEST_F(HttpServerTest, MetricsExposeServeCountersAndHistograms) {
  HttpClient client;
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);

  const HttpResponse response = RoundTrip(client, "GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Object& root = body->AsObject();
  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().Find("serve.cache.hits")->AsNumber(), 1.0);
  EXPECT_EQ(counters->AsObject().Find("serve.cache.misses")->AsNumber(), 1.0);
  EXPECT_EQ(counters->AsObject().Find("serve.requests")->AsNumber(), 2.0);
  const json::Value* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* latency =
      histograms->AsObject().Find(telemetry::SpanMetricName("select"));
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->AsObject().Find("count")->AsNumber(), 2.0);
}

TEST_F(HttpServerTest, MintsAWellFormedTraceIdWhenNoneIsSupplied) {
  HttpClient client;
  const HttpResponse response = RoundTrip(client, "GET", "/healthz");
  const std::string* trace_id = response.FindHeader("X-Podium-Trace-Id");
  ASSERT_NE(trace_id, nullptr);
  EXPECT_EQ(trace_id->size(), 32u);
  EXPECT_TRUE(obs::TraceId::FromHex(*trace_id).has_value()) << *trace_id;

  // A second request gets a different id.
  const HttpResponse again = RoundTrip(client, "GET", "/healthz");
  ASSERT_NE(again.FindHeader("X-Podium-Trace-Id"), nullptr);
  EXPECT_NE(*again.FindHeader("X-Podium-Trace-Id"), *trace_id);
}

TEST_F(HttpServerTest, AdoptsAClientSuppliedTraceId) {
  const std::string supplied = "4bf92f3577b34da6a3ce929d0e0e4736";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.body = R"({"budget": 2})";
  request.headers.emplace_back("X-Podium-Trace-Id", supplied);
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_NE(response->FindHeader("X-Podium-Trace-Id"), nullptr);
  EXPECT_EQ(*response->FindHeader("X-Podium-Trace-Id"), supplied);

  // A malformed id is not adopted; the server mints a fresh one.
  HttpRequest bad;
  bad.method = "GET";
  bad.target = "/healthz";
  bad.headers.emplace_back("X-Podium-Trace-Id", "not-a-trace-id");
  Result<HttpResponse> bad_response = client.RoundTrip(bad);
  ASSERT_TRUE(bad_response.ok()) << bad_response.status();
  const std::string* minted = bad_response->FindHeader("X-Podium-Trace-Id");
  ASSERT_NE(minted, nullptr);
  EXPECT_NE(*minted, "not-a-trace-id");
  EXPECT_TRUE(obs::TraceId::FromHex(*minted).has_value()) << *minted;
}

TEST_F(HttpServerTest, TracesEndpointReturnsRecordedSpanTrees) {
  obs::TraceRing::Global().Clear();
  const std::string supplied = "0123456789abcdef0123456789abcdef";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.body = R"({"budget": 2})";
  request.headers.emplace_back("X-Podium-Trace-Id", supplied);
  ASSERT_TRUE(client.RoundTrip(request).ok());

  const HttpResponse response =
      RoundTrip(client, "GET", "/v1/traces?limit=10");
  ASSERT_EQ(response.status, 200) << response.body;
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Object& root = body->AsObject();
  EXPECT_EQ(root.Find("capacity")->AsNumber(), 256.0);
  const json::Value* traces = root.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  ASSERT_FALSE(traces->AsArray().empty());

  // Most recent first: the select request is behind whatever the
  // /v1/traces request itself recorded, so search by id.
  const json::Object* select_trace = nullptr;
  for (const json::Value& entry : traces->AsArray()) {
    if (entry.AsObject().Find("trace_id")->AsString() == supplied) {
      select_trace = &entry.AsObject();
    }
  }
  ASSERT_NE(select_trace, nullptr);
  EXPECT_EQ(select_trace->Find("method")->AsString(), "POST");
  EXPECT_EQ(select_trace->Find("path")->AsString(), "/v1/select");
  EXPECT_EQ(select_trace->Find("status")->AsNumber(), 200.0);
  EXPECT_GE(select_trace->Find("duration_seconds")->AsNumber(), 0.0);

  // The span tree nests select -> admission/run under the handler.
  const json::Value* spans = select_trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  std::vector<std::string> names;
  for (const json::Value& span : spans->AsArray()) {
    names.push_back(span.AsObject().Find("name")->AsString());
    EXPECT_GE(span.AsObject().Find("duration_seconds")->AsNumber(), 0.0);
    EXPECT_NE(span.AsObject().Find("parent"), nullptr);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "select"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "run"), names.end());
}

// A cache miss's trace explains its own cost: the greedy's phases nest
// under `run`, and the rounds span carries the run's work counters.
TEST_F(HttpServerTest, MissTraceReachesIntoTheGreedy) {
  obs::TraceRing::Global().Clear();
  const std::string supplied = "fedcba9876543210fedcba9876543210";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto& links = telemetry::MetricsRegistry::Global().counter(
      "greedy.retired_links");
  const std::uint64_t links_before = links.Value();
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.body = R"({"budget": 2})";
  request.headers.emplace_back("X-Podium-Trace-Id", supplied);
  Result<HttpResponse> reply = client.RoundTrip(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(*reply->FindHeader("X-Podium-Cache"), "miss");
  const std::uint64_t links_delta = links.Value() - links_before;

  const HttpResponse response = RoundTrip(client, "GET", "/v1/traces");
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Array* spans = nullptr;
  for (const json::Value& entry :
       body->AsObject().Find("traces")->AsArray()) {
    if (entry.AsObject().Find("trace_id")->AsString() == supplied) {
      spans = &entry.AsObject().Find("spans")->AsArray();
    }
  }
  ASSERT_NE(spans, nullptr);
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < spans->size(); ++i) {
      if ((*spans)[i].AsObject().Find("name")->AsString() == name) {
        return static_cast<double>(i);
      }
    }
    ADD_FAILURE() << "no span " << name;
    return -2.0;
  };
  const auto parent_of = [&](const std::string& name) {
    const double index = index_of(name);
    if (index < 0) return -2.0;
    return (*spans)[static_cast<std::size_t>(index)]
        .AsObject()
        .Find("parent")
        ->AsNumber();
  };
  EXPECT_EQ(parent_of("greedy.select"), index_of("run"));
  for (const char* child :
       {"greedy.setup", "greedy.init", "greedy.rounds", "greedy.score"}) {
    EXPECT_EQ(parent_of(child), index_of("greedy.select")) << child;
  }
  const json::Object& rounds =
      (*spans)[static_cast<std::size_t>(index_of("greedy.rounds"))]
          .AsObject();
  const json::Value* attributes = rounds.Find("attributes");
  ASSERT_NE(attributes, nullptr);
  EXPECT_EQ(attributes->AsObject().Find("rounds")->AsNumber(), 2.0);
  EXPECT_EQ(attributes->AsObject().Find("retired_links")->AsNumber(),
            static_cast<double>(links_delta));

  // Every span of the trace is aggregated under its own name.
  const HttpResponse metrics = RoundTrip(client, "GET", "/metrics");
  Result<json::Value> metrics_body = json::Parse(metrics.body);
  ASSERT_TRUE(metrics_body.ok()) << metrics_body.status();
  const json::Object& histograms =
      metrics_body->AsObject().Find("histograms")->AsObject();
  const std::string prometheus =
      RoundTrip(client, "GET", "/metrics?format=prometheus").body;
  for (const json::Value& span : *spans) {
    const std::string& name = span.AsObject().Find("name")->AsString();
    EXPECT_NE(histograms.Find(telemetry::SpanMetricName(name)), nullptr)
        << name;
    EXPECT_NE(prometheus.find("span_seconds_count{span=\"" + name + "\"}"),
              std::string::npos)
        << name;
  }
}

TEST_F(HttpServerTest, TracesEndpointRejectsBadLimit) {
  HttpClient client;
  EXPECT_EQ(RoundTrip(client, "GET", "/v1/traces?limit=banana").status, 400);
}

TEST_F(HttpServerTest, PrometheusFormatRendersTextExposition) {
  HttpClient client;
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);

  const HttpResponse response =
      RoundTrip(client, "GET", "/metrics?format=prometheus");
  ASSERT_EQ(response.status, 200) << response.body;
  ASSERT_NE(response.FindHeader("Content-Type"), nullptr);
  EXPECT_EQ(*response.FindHeader("Content-Type"),
            "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("# TYPE serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("serve_requests 1\n"), std::string::npos);
  // Labeled per-endpoint series and cumulative histogram suffixes.
  EXPECT_NE(response.body.find(
                "serve_http_responses{code=\"200\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "serve_http_request_seconds_bucket{path=\"/v1/select\","
                "le=\"+Inf\"}"),
            std::string::npos);
  // Span timings form one labeled family.
  EXPECT_NE(response.body.find("# TYPE span_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("span_seconds_sum{span=\"select\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("span_seconds_count{span=\"select\"} 1\n"),
            std::string::npos);

  // JSON stays the default; unknown formats are rejected.
  const HttpResponse json_response =
      RoundTrip(client, "GET", "/metrics?format=json");
  EXPECT_EQ(json_response.status, 200);
  EXPECT_TRUE(json::Parse(json_response.body).ok());
  EXPECT_EQ(RoundTrip(client, "GET", "/metrics?format=xml").status, 400);
}

TEST_F(HttpServerTest, ConnectionCloseIsHonored) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  request.headers.emplace_back("Connection", "close");
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_NE(response->FindHeader("Connection"), nullptr);
  EXPECT_EQ(*response->FindHeader("Connection"), "close");
  // The server hangs up; the next round trip on this connection fails.
  HttpRequest again;
  again.method = "GET";
  again.target = "/healthz";
  EXPECT_FALSE(client.RoundTrip(again).ok());
}

TEST_F(HttpServerTest, ConcurrentClientsAllSucceed) {
  constexpr int kClients = 6;
  constexpr int kRequestsEach = 30;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
      std::string expected_body;
      for (int i = 0; i < kRequestsEach; ++i) {
        HttpRequest request;
        request.method = "POST";
        request.target = "/v1/select";
        request.body = "{\"budget\": " + std::to_string(2 + t % 3) + "}";
        Result<HttpResponse> response = client.RoundTrip(request);
        ASSERT_TRUE(response.ok()) << response.status();
        ASSERT_EQ(response->status, 200) << response->body;
        if (expected_body.empty()) {
          expected_body = response->body;
        } else {
          EXPECT_EQ(response->body, expected_body);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .counter("serve.requests")
                .Value(),
            static_cast<std::uint64_t>(kClients) * kRequestsEach);
  EXPECT_EQ(
      telemetry::MetricsRegistry::Global().counter("serve.errors").Value(),
      0u);
}

TEST_F(HttpServerTest, StopUnblocksIdleConnections) {
  // A connected but idle client must not wedge Stop(): the server shuts
  // the socket down and joins its workers.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(RoundTrip(client, "GET", "/healthz").status, 200);
  server_->Stop();  // TearDown's second Stop() is a no-op
}

TEST_F(HttpServerTest, ConnectionCloseTokenIsCaseInsensitive) {
  for (const char* value : {"CLOSE", "cLoSe", "Close"}) {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    HttpRequest request;
    request.method = "GET";
    request.target = "/healthz";
    request.headers.emplace_back("Connection", value);
    Result<HttpResponse> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    // The server hangs up after the response.
    HttpRequest again;
    again.method = "GET";
    again.target = "/healthz";
    EXPECT_FALSE(client.RoundTrip(again).ok()) << "token: " << value;
  }
}

TEST_F(HttpServerTest, ConnectionCloseIsFoundInCommaList) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  request.headers.emplace_back("Connection", "keep-alive, Close");
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  HttpRequest again;
  again.method = "GET";
  again.target = "/healthz";
  EXPECT_FALSE(client.RoundTrip(again).ok());
}

TEST_F(HttpServerTest, Http10DefaultsToCloseUnlessKeepAlive) {
  // Plain HTTP/1.0: implicit close after the response.
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    HttpRequest request;
    request.method = "GET";
    request.target = "/healthz";
    request.version = "HTTP/1.0";
    Result<HttpResponse> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    HttpRequest again;
    again.method = "GET";
    again.target = "/healthz";
    EXPECT_FALSE(client.RoundTrip(again).ok());
  }
  // HTTP/1.0 with an explicit keep-alive token: the connection survives.
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    for (int i = 0; i < 2; ++i) {
      HttpRequest request;
      request.method = "GET";
      request.target = "/healthz";
      request.version = "HTTP/1.0";
      request.headers.emplace_back("Connection", "keep-alive");
      Result<HttpResponse> response = client.RoundTrip(request);
      ASSERT_TRUE(response.ok()) << response.status() << " round " << i;
      EXPECT_EQ(response->status, 200);
    }
  }
}

TEST_F(HttpServerTest, AcceptFailuresBackOffAndRecover) {
  // The first two accepts fail with EMFILE (injected); the server must
  // count them, pause, and still serve the connection afterwards — the
  // old design's accept loop exited permanently on this.
  auto failures_left = std::make_shared<std::atomic<int>>(2);
  HttpServerOptions options;
  options.worker_threads = 2;
  options.accept_backoff_ms = 5;
  options.accept_fn = [failures_left](int listen_fd) {
    if (failures_left->fetch_sub(1, std::memory_order_relaxed) > 0) {
      errno = EMFILE;
      return -1;
    }
    return ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
  };
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  EXPECT_GE(telemetry::MetricsRegistry::Global()
                .counter("serve.http.accept_failures")
                .Value(),
            2u);
  server->Stop();
}

TEST_F(HttpServerTest, ConcurrentStopsAllWaitForShutdown) {
  // Racing Stop() calls: exactly one shuts down, the others must block
  // until it has finished (the old design double-joined the same threads).
  constexpr int kStoppers = 4;
  std::vector<std::thread> stoppers;
  stoppers.reserve(kStoppers);
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([this] { server_->Stop(); });
  }
  for (std::thread& stopper : stoppers) stopper.join();
  // After every Stop() returned the server is gone for real.
  HttpClient client;
  EXPECT_FALSE(client.Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(HttpServerTest, SlowLorisDoesNotStarveOtherClients) {
  // A connection trickling a never-completing request head must cost a
  // buffer, not a worker: with 2 workers and one loris, full requests
  // keep flowing.
  HttpServerOptions options;
  options.worker_threads = 2;
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  const int loris = ConnectRaw(server->port());
  ASSERT_GE(loris, 0);
  const std::string partial = "POST /v1/select HTTP/1.1\r\nContent-Le";
  ASSERT_EQ(::send(loris, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&ok_count, port = server->port()] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      for (int i = 0; i < 5; ++i) {
        HttpRequest request;
        request.method = "GET";
        request.target = "/healthz";
        Result<HttpResponse> response = client.RoundTrip(request);
        ASSERT_TRUE(response.ok()) << response.status();
        ASSERT_EQ(response->status, 200);
        ++ok_count;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * 5);

  // Trickle one more byte, then finish the request: the loris still gets
  // served once its request finally completes.
  const std::string rest = "ngth: 2\r\n\r\n{}";
  ASSERT_EQ(::send(loris, rest.data(), rest.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(rest.size()));
  char byte = 0;
  EXPECT_GT(::recv(loris, &byte, 1, 0), 0);  // response bytes arrive
  ::close(loris);
  server->Stop();
}

TEST_F(HttpServerTest, IdleKeepAliveConnectionsDoNotHoldWorkers) {
  // One worker thread, several parked keep-alive connections: under the
  // old thread-per-connection design the second client would wait
  // forever; under the event loop idle connections cost no worker.
  HttpServerOptions options;
  options.worker_threads = 1;
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  constexpr int kClients = 4;
  std::vector<std::unique_ptr<HttpClient>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<HttpClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server->port()).ok());
  }
  // All connections stay open; requests round-robin across them twice,
  // including in reverse order, and every one is served.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kClients; ++i) {
      const int pick = round == 0 ? i : kClients - 1 - i;
      HttpRequest request;
      request.method = "GET";
      request.target = "/healthz";
      Result<HttpResponse> response = clients[pick]->RoundTrip(request);
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->status, 200);
    }
  }
  server->Stop();
}

}  // namespace
}  // namespace podium::serve
