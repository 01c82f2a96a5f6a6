#include "podium/obs/trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"

namespace podium::obs {
namespace {

// --- TraceId ---------------------------------------------------------------

TEST(TraceIdTest, HexRoundTripsBothHalves) {
  TraceId id;
  id.high = 0x4bf92f3577b34da6ULL;
  id.low = 0xa3ce929d0e0e4736ULL;
  EXPECT_EQ(id.ToHex(), "4bf92f3577b34da6a3ce929d0e0e4736");

  const std::optional<TraceId> parsed =
      TraceId::FromHex("4bf92f3577b34da6a3ce929d0e0e4736");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->high, id.high);
  EXPECT_EQ(parsed->low, id.low);
}

TEST(TraceIdTest, FromHexAcceptsUppercaseAndZero) {
  const std::optional<TraceId> upper =
      TraceId::FromHex("4BF92F3577B34DA6A3CE929D0E0E4736");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->ToHex(), "4bf92f3577b34da6a3ce929d0e0e4736");

  const std::optional<TraceId> zero =
      TraceId::FromHex("00000000000000000000000000000000");
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(zero->IsZero());
}

TEST(TraceIdTest, FromHexRejectsWrongLengthAndNonHex) {
  EXPECT_FALSE(TraceId::FromHex("").has_value());
  EXPECT_FALSE(TraceId::FromHex("abc").has_value());
  EXPECT_FALSE(TraceId::FromHex(std::string(31, 'a')).has_value());
  EXPECT_FALSE(TraceId::FromHex(std::string(33, 'a')).has_value());
  // Right length, wrong alphabet.
  EXPECT_FALSE(
      TraceId::FromHex("4bf92f3577b34da6a3ce929d0e0e473g").has_value());
  EXPECT_FALSE(
      TraceId::FromHex("4bf92f3577b34da6-3ce929d0e0e4736").has_value());
}

TEST(TraceIdTest, GenerateIsNonZeroAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    const TraceId id = TraceId::Generate();
    EXPECT_FALSE(id.IsZero());
    EXPECT_EQ(id.ToHex().size(), 32u);
    seen.insert(id.ToHex());
  }
  EXPECT_EQ(seen.size(), 64u);
}

// --- TraceContext ----------------------------------------------------------

TEST(TraceContextTest, SpansNestViaParentIndices) {
  TraceContext trace(TraceId::Generate());
  const int select = trace.BeginSpan("select");
  const int lookup = trace.BeginSpan("cache.lookup");
  trace.EndSpan(lookup);
  const int run = trace.BeginSpan("run");
  trace.EndSpan(run);
  trace.EndSpan(select);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].name, "select");
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[1].name, "cache.lookup");
  EXPECT_EQ(trace.spans()[1].parent, select);
  EXPECT_EQ(trace.spans()[2].name, "run");
  EXPECT_EQ(trace.spans()[2].parent, select);
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.start_seconds, 0.0);
    EXPECT_GE(span.duration_seconds, 0.0);
  }
}

TEST(TraceContextTest, EndingAParentPopsUnclosedChildren) {
  TraceContext trace(TraceId::Generate());
  const int outer = trace.BeginSpan("outer");
  trace.BeginSpan("leaked");  // never explicitly ended
  trace.EndSpan(outer);
  // The open stack recovered: the next root span has no parent.
  const int next = trace.BeginSpan("next");
  trace.EndSpan(next);
  EXPECT_EQ(trace.spans()[static_cast<std::size_t>(next)].parent, -1);
}

TEST(TraceContextTest, EndSpanIgnoresBogusIndices) {
  TraceContext trace(TraceId::Generate());
  trace.EndSpan(-1);
  trace.EndSpan(42);
  EXPECT_TRUE(trace.spans().empty());
}

// --- TraceScope / Span -----------------------------------------------------

TEST(TraceScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TraceContext outer(TraceId::Generate());
  {
    TraceScope outer_scope(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    TraceContext inner(TraceId::Generate());
    {
      TraceScope inner_scope(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(SpanTest, RecordsAgainstTheCurrentTrace) {
  TraceContext trace(TraceId::Generate());
  {
    TraceScope scope(&trace);
    Span select("select");
    Span nested("admission");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "select");
  EXPECT_EQ(trace.spans()[1].parent, 0);
  // Both RAII spans closed in reverse order.
  EXPECT_GE(trace.spans()[0].duration_seconds,
            trace.spans()[1].duration_seconds);
}

TEST(SpanTest, IsANoOpWithoutACurrentTrace) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  ASSERT_FALSE(telemetry::Enabled());
  Span span("orphan");  // must not crash or record anywhere
  span.SetAttribute("ignored", 1.0);
  EXPECT_GE(span.ElapsedSeconds(), 0.0);
}

TEST(SpanTest, AttributesAndCompletedSpansLandInTheTrace) {
  TraceContext trace(TraceId::Generate());
  {
    TraceScope scope(&trace);
    Span run("run");
    run.SetAttribute("rounds", 16.0);
    RecordSpan("shard.round1", 0.5, 0.25, {{"shard", 3.0}, {"pool", 64.0}});
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  const TraceSpan& run = trace.spans()[0];
  ASSERT_EQ(run.attributes.size(), 1u);
  EXPECT_EQ(run.attributes[0].key, "rounds");
  EXPECT_EQ(run.attributes[0].value, 16.0);
  // A recorded span nests under the innermost open span, as measured.
  const TraceSpan& shard = trace.spans()[1];
  EXPECT_EQ(shard.name, "shard.round1");
  EXPECT_EQ(shard.parent, 0);
  EXPECT_EQ(shard.start_seconds, 0.5);
  EXPECT_EQ(shard.duration_seconds, 0.25);
  ASSERT_EQ(shard.attributes.size(), 2u);
  EXPECT_EQ(shard.attributes[1].key, "pool");
  EXPECT_EQ(shard.attributes[1].value, 64.0);
}

TEST(SpanTest, FeedsTheSpanHistogramWithOrWithoutATrace) {
  telemetry::SetEnabled(true);
  telemetry::ResetAllTelemetry();
  const telemetry::Histogram& histogram =
      telemetry::MetricsRegistry::Global().histogram(
          telemetry::SpanMetricName("test.aggregate"));
  { Span untraced("test.aggregate"); }
  RecordSpan("test.aggregate", 0.0, 2.0);
  TraceContext trace(TraceId::Generate());
  {
    TraceScope scope(&trace);
    Span traced("test.aggregate");
  }
  EXPECT_EQ(histogram.Count(), 3u);
  EXPECT_GE(histogram.Sum(), 2.0);
  EXPECT_EQ(trace.spans().size(), 1u);
  telemetry::SetEnabled(false);
  telemetry::ResetAllTelemetry();
}

// --- TraceRing -------------------------------------------------------------

FinishedTrace MakeTrace(int n) {
  FinishedTrace trace;
  trace.trace_id = TraceId::Generate().ToHex();
  trace.method = "POST";
  trace.path = "/v1/select";
  trace.http_status = n;
  return trace;
}

TEST(TraceRingTest, EvictsOldestBeyondCapacity) {
  TraceRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int n = 1; n <= 5; ++n) ring.Record(MakeTrace(n));
  EXPECT_EQ(ring.size(), 3u);

  const std::vector<FinishedTrace> all = ring.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  // Most recent first; 1 and 2 were evicted.
  EXPECT_EQ(all[0].http_status, 5);
  EXPECT_EQ(all[1].http_status, 4);
  EXPECT_EQ(all[2].http_status, 3);
}

TEST(TraceRingTest, SnapshotHonorsLimit) {
  TraceRing ring(8);
  for (int n = 1; n <= 4; ++n) ring.Record(MakeTrace(n));
  const std::vector<FinishedTrace> two = ring.Snapshot(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].http_status, 4);
  EXPECT_EQ(two[1].http_status, 3);
  // A limit beyond the retained count returns everything.
  EXPECT_EQ(ring.Snapshot(100).size(), 4u);
}

TEST(TraceRingTest, ClearEmptiesAndZeroCapacityDropsEverything) {
  TraceRing ring(2);
  ring.Record(MakeTrace(1));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());

  TraceRing disabled(0);
  disabled.Record(MakeTrace(1));
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(TraceRingTest, GlobalRingIsSharedAndBounded) {
  TraceRing& global = TraceRing::Global();
  EXPECT_EQ(&global, &TraceRing::Global());
  EXPECT_EQ(global.capacity(), 256u);
}

}  // namespace
}  // namespace podium::obs
