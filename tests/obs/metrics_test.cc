#include "podium/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "podium/core/greedy.h"
#include "podium/core/instance.h"
#include "podium/json/parser.h"
#include "podium/json/writer.h"
#include "podium/obs/export.h"
#include "podium/obs/trace.h"
#include "tests/testing/table2.h"

namespace podium::obs {
namespace {

/// The registry is process-global and always records; every test starts
/// from zeroed metrics.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
};

TEST_F(TelemetryTest, CounterCountsAndResets) {
  Counter& counter = MetricsRegistry::Global().counter("test.counter");
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(TelemetryTest, ConcurrentCounterIncrementsLoseNoUpdates) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  Counter& counter = MetricsRegistry::Global().counter("test.concurrent");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(TelemetryTest, RegistryReturnsSameMetricPerName) {
  auto& registry = MetricsRegistry::Global();
  Counter& a = registry.counter("test.same");
  Counter& b = registry.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST_F(TelemetryTest, GaugeKeepsLastWrite) {
  Gauge& gauge = MetricsRegistry::Global().gauge("test.gauge");
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.25);
}

TEST_F(TelemetryTest, HistogramBucketsByUpperBound) {
  Histogram& histogram =
      MetricsRegistry::Global().histogram("test.histogram", {1.0, 10.0});
  histogram.Observe(0.5);   // <= 1
  histogram.Observe(5.0);   // <= 10
  histogram.Observe(50.0);  // overflow
  histogram.Observe(1.0);   // boundary goes to its own bucket
  const std::vector<std::uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 56.5);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::Global();
  registry.counter("test.zz").Add(1);
  registry.counter("test.aa").Add(2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
}

const Histogram& SpanHistogram(std::string_view span) {
  return MetricsRegistry::Global().histogram(SpanMetricName(span));
}

TEST_F(TelemetryTest, SpanMetricNamesRoundTrip) {
  EXPECT_EQ(SpanMetricName("greedy.rounds"),
            "span.seconds{span=\"greedy.rounds\"}");
  EXPECT_EQ(SpanNameOf(SpanMetricName("greedy.rounds")), "greedy.rounds");
  EXPECT_EQ(SpanNameOf("serve.http.request_seconds{path=\"/metrics\"}"), "");
  EXPECT_EQ(SpanNameOf("span.seconds"), "");
}

TEST_F(TelemetryTest, NestedSpansAggregatePerName) {
  {
    Span outer("test.outer");
    for (int i = 0; i < 2; ++i) {
      Span inner(std::string("test.") + "inner");  // temporary name
    }
    EXPECT_GE(outer.ElapsedSeconds(), 0.0);
  }
  { Span outer("test.outer"); }
  const Histogram& outer = SpanHistogram("test.outer");
  const Histogram& inner = SpanHistogram("test.inner");
  EXPECT_EQ(outer.Count(), 2u);
  EXPECT_EQ(inner.Count(), 2u);
  // Children's time is a subset of the parent's.
  EXPECT_LE(inner.Sum(), outer.Sum());
}

TEST_F(TelemetryTest, ResetZeroesSpanHistograms) {
  { Span span("test.reset"); }
  ASSERT_EQ(SpanHistogram("test.reset").Count(), 1u);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(SpanHistogram("test.reset").Count(), 0u);
  EXPECT_EQ(SpanHistogram("test.reset").Sum(), 0.0);
}

/// Shared repository: instances keep a pointer into it, so it must outlive
/// every instance the tests build.
const ProfileRepository& Table2Repo() {
  static const ProfileRepository* repo =  // podium-lint: allow(raw-new)
      new ProfileRepository(podium::testing::MakeTable2Repository());
  return *repo;
}

DiversificationInstance MakeInstance(std::size_t budget) {
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(
          Table2Repo(), podium::testing::MakeTable2Groups(Table2Repo()),
          WeightKind::kLbs, CoverageKind::kSingle, budget);
  if (!instance.ok()) std::abort();
  return std::move(instance).value();
}

Selection RunGreedy(std::size_t budget) {
  const DiversificationInstance instance = MakeInstance(budget);
  Result<Selection> selection = GreedySelector().Select(instance, budget);
  if (!selection.ok()) std::abort();
  return std::move(selection).value();
}

/// Runs the greedy under a fresh request trace and returns the trace.
TraceContext RunTracedGreedy(std::size_t budget,
                                  Selection* selection_out) {
  TraceContext trace(TraceId::Generate());
  TraceScope scope(&trace);
  *selection_out = RunGreedy(budget);
  return trace;
}

/// The value of attribute `key` on the i-th span named `name`.
double Attribute(const TraceContext& trace, std::string_view name,
                 std::string_view key, std::size_t nth = 0) {
  for (const TraceSpan& span : trace.spans()) {
    if (span.name != name) continue;
    if (nth-- > 0) continue;
    for (const SpanAttribute& attribute : span.attributes) {
      if (attribute.key == key) return attribute.value;
    }
    ADD_FAILURE() << name << " has no attribute " << key;
    return -1.0;
  }
  ADD_FAILURE() << "no span " << name;
  return -1.0;
}

TEST_F(TelemetryTest, GreedyRoundsSpanCarriesRunTotals) {
  constexpr std::size_t kBudget = 3;
  Selection selection;
  const TraceContext trace =
      RunTracedGreedy(kBudget, &selection);
  // greedy.select -> setup / init / rounds / score, in that order.
  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "greedy.select");
  EXPECT_EQ(spans[0].parent, -1);
  const char* children[] = {"greedy.setup", "greedy.init", "greedy.rounds",
                            "greedy.score"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i + 1].name, children[i]);
    EXPECT_EQ(spans[i + 1].parent, 0);
  }
  // The attributes are this run's totals, equal to the counters' deltas.
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(selection.users.size()));
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(registry.counter("greedy.rounds").Value()));
  EXPECT_EQ(
      Attribute(trace, "greedy.rounds", "retired_links"),
      static_cast<double>(registry.counter("greedy.retired_links").Value()));
  EXPECT_EQ(
      Attribute(trace, "greedy.rounds", "retired_groups"),
      static_cast<double>(registry.counter("greedy.retired_groups").Value()));
  EXPECT_GT(Attribute(trace, "greedy.rounds", "retired_links"), 0.0);
  EXPECT_EQ(SpanHistogram("greedy.rounds").Count(), 1u);
}

// An EBS run publishes the same totals plus the ids its refinement read;
// it charges no gains back, so it retires no links.
TEST_F(TelemetryTest, EbsRoundsSpanCarriesRunTotals) {
  constexpr std::size_t kBudget = 3;
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(
          Table2Repo(), podium::testing::MakeTable2Groups(Table2Repo()),
          WeightKind::kEbs, CoverageKind::kSingle, kBudget);
  ASSERT_TRUE(instance.ok());
  TraceContext trace(TraceId::Generate());
  Selection selection;
  {
    TraceScope scope(&trace);
    Result<Selection> selected =
        GreedySelector().Select(instance.value(), kBudget);
    ASSERT_TRUE(selected.ok());
    selection = std::move(selected).value();
  }
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(selection.users.size()));
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(registry.counter("greedy.rounds").Value()));
  EXPECT_EQ(
      Attribute(trace, "greedy.rounds", "retired_groups"),
      static_cast<double>(registry.counter("greedy.retired_groups").Value()));
  EXPECT_GT(Attribute(trace, "greedy.rounds", "retired_groups"), 0.0);
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "ebs_reads"),
            static_cast<double>(registry.counter("greedy.ebs_reads").Value()));
  EXPECT_GT(Attribute(trace, "greedy.rounds", "ebs_reads"), 0.0);
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "retired_links"), 0.0);
  EXPECT_EQ(registry.counter("greedy.retired_links").Value(), 0u);
}

// Selecting every user of Table 2 ends the run in the zero-gain tail: the
// picks it appends count in `rounds` and in `tail_users`, and both match
// the counters.
TEST_F(TelemetryTest, ZeroGainTailCountsOnTheRoundsSpan) {
  const std::size_t all = Table2Repo().user_count();
  Selection selection;
  const TraceContext trace = RunTracedGreedy(all, &selection);
  EXPECT_EQ(selection.users.size(), all);
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(all));
  const double tail_users = Attribute(trace, "greedy.rounds", "tail_users");
  EXPECT_GT(tail_users, 0.0);
  EXPECT_LT(tail_users, static_cast<double>(all));
  EXPECT_EQ(tail_users, static_cast<double>(
                            registry.counter("greedy.tail_users").Value()));
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds"),
            static_cast<double>(registry.counter("greedy.rounds").Value()));
}

TEST_F(TelemetryTest, TraceSeparatesConsecutiveRuns) {
  TraceContext trace(TraceId::Generate());
  {
    TraceScope scope(&trace);
    RunGreedy(2);
    RunGreedy(2);
  }
  std::size_t roots = 0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "greedy.select") {
      EXPECT_EQ(span.parent, -1);
      ++roots;
    }
  }
  EXPECT_EQ(roots, 2u);
  // Per-run totals, not running sums.
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds", 0), 2.0);
  EXPECT_EQ(Attribute(trace, "greedy.rounds", "rounds", 1), 2.0);
  EXPECT_EQ(MetricsRegistry::Global().counter("greedy.runs").Value(), 2u);
}

// The sharded selector runs its greedies under TraceScope(nullptr): with
// tracing disabled a run adds no span to the enclosing request trace, yet
// the registry still records it.
TEST_F(TelemetryTest, DisabledGreedyRecordsNoTrace) {
  TraceContext trace(TraceId::Generate());
  {
    TraceScope scope(&trace);
    {
      TraceScope no_trace(nullptr);
      EXPECT_EQ(CurrentTrace(), nullptr);
      RunGreedy(2);
    }
    EXPECT_EQ(CurrentTrace(), &trace);
  }
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(MetricsRegistry::Global().counter("greedy.runs").Value(), 1u);
  EXPECT_EQ(MetricsRegistry::Global().counter("greedy.rounds").Value(), 2u);
  EXPECT_EQ(SpanHistogram("greedy.select").Count(), 1u);
  EXPECT_EQ(SpanHistogram("greedy.rounds").Count(), 1u);
}

// Telemetry memory is bounded by the number of distinct metric names, not
// by traffic: 2,000 greedy runs leave the export within 10% of its size
// after 20 (only the numbers get longer).
TEST_F(TelemetryTest, ExportStaysBoundedOverRepeatedRuns) {
  const DiversificationInstance instance = MakeInstance(3);
  const GreedySelector selector;
  const auto run = [&](int times) {
    for (int i = 0; i < times; ++i) {
      ASSERT_TRUE(selector.Select(instance, 3).ok());
    }
  };
  // Sized as GET /metrics serves it.
  json::WriteOptions pretty;
  pretty.indent = 2;
  run(20);
  const std::size_t early = json::Write(TelemetryToJson(), pretty).size();
  run(1980);
  const std::size_t late = json::Write(TelemetryToJson(), pretty).size();
  EXPECT_EQ(MetricsRegistry::Global().counter("greedy.runs").Value(), 2000u);
  EXPECT_LE(static_cast<double>(late), 1.1 * static_cast<double>(early))
      << "after 20 runs: " << early << " bytes, after 2000: " << late;
}

TEST_F(TelemetryTest, JsonExportMatchesDocumentedSchema) {
  constexpr std::size_t kBudget = 2;
  RunGreedy(kBudget);

  const json::Value root = TelemetryToJson();
  ASSERT_TRUE(root.is_object());
  const json::Object& object = root.AsObject();
  ASSERT_EQ(object.size(), 4u);

  const json::Value* schema = object.Find("schema");
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE(schema->is_object());
  EXPECT_EQ(schema->AsObject().Find("name")->AsString(), "podium.telemetry");
  EXPECT_EQ(schema->AsObject().Find("version")->AsNumber(),
            kTelemetrySchemaVersion);
  EXPECT_EQ(kTelemetrySchemaVersion, 2);

  const json::Value* counters = object.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const json::Value* rounds = counters->AsObject().Find("greedy.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->AsNumber(), static_cast<double>(kBudget));
  EXPECT_NE(counters->AsObject().Find("greedy.tail_users"), nullptr);

  ASSERT_NE(object.Find("gauges"), nullptr);
  EXPECT_TRUE(object.Find("gauges")->is_object());
  const json::Value* histograms = object.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_TRUE(histograms->is_object());
  // Span timings live among the histograms, one per span name.
  for (const char* span : {"greedy.select", "greedy.setup", "greedy.init",
                           "greedy.rounds", "greedy.score"}) {
    const json::Value* histogram =
        histograms->AsObject().Find(SpanMetricName(span));
    ASSERT_NE(histogram, nullptr) << span;
    EXPECT_EQ(histogram->AsObject().Find("count")->AsNumber(), 1.0) << span;
  }
}

TEST_F(TelemetryTest, JsonExportEscapesHostileMetricNames) {
  // Metric names are data to the exporter: quotes, control characters and
  // non-ASCII bytes must survive a serialize -> parse round-trip intact.
  const std::string hostile = "test.\"quoted\"\nnew\tline caf\xC3\xA9 \x01";
  auto& registry = MetricsRegistry::Global();
  registry.counter(hostile).Add(7);
  registry.gauge(hostile).Set(1.5);
  registry.histogram(hostile, {1.0}).Observe(0.5);

  const std::string text = json::Write(TelemetryToJson());
  Result<json::Value> parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Object& object = parsed.value().AsObject();

  const json::Value* counter = object.Find("counters")->AsObject().Find(hostile);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->AsNumber(), 7.0);
  const json::Value* gauge = object.Find("gauges")->AsObject().Find(hostile);
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->AsNumber(), 1.5);
  const json::Value* histogram =
      object.Find("histograms")->AsObject().Find(hostile);
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->AsObject().Find("count")->AsNumber(), 1.0);
}

TEST_F(TelemetryTest, WriteTelemetryJsonRoundTrips) {
  RunGreedy(2);
  const std::string path =
      ::testing::TempDir() + "/podium_telemetry_test.json";
  ASSERT_TRUE(WriteTelemetryJson(path).ok());
  Result<json::Value> parsed = json::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed.value().AsObject().Find("schema"),
            *TelemetryToJson().AsObject().Find("schema"));
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, RenderTimingSummaryListsPhasesAndCounters) {
  RunGreedy(2);
  const std::string summary = RenderTimingSummary();
  // One flat line per span (name, completions, seconds), then counters.
  EXPECT_NE(summary.find("greedy.select"), std::string::npos);
  EXPECT_NE(summary.find("greedy.rounds"), std::string::npos);
  EXPECT_NE(summary.find("x1 "), std::string::npos);
  EXPECT_NE(summary.find("counters:"), std::string::npos);
  EXPECT_EQ(summary.find("span.seconds"), std::string::npos);
}

TEST_F(TelemetryTest, ResetAllTelemetryClearsEveryStore) {
  RunGreedy(2);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(MetricsRegistry::Global()
                .counter("greedy.rounds")
                .Value(),
            0u);
  EXPECT_EQ(SpanHistogram("greedy.select").Count(), 0u);
}

}  // namespace
}  // namespace podium::obs
