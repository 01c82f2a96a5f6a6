#include "podium/obs/prometheus.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "podium/obs/metrics.h"

namespace podium::obs {
namespace {

// --- sanitization ----------------------------------------------------------

TEST(SanitizeMetricNameTest, ReplacesInvalidCharacters) {
  EXPECT_EQ(SanitizeMetricName("serve.latency_seconds"),
            "serve_latency_seconds");
  EXPECT_EQ(SanitizeMetricName("http/requests-total"),
            "http_requests_total");
  EXPECT_EQ(SanitizeMetricName("already_fine_123"), "already_fine_123");
}

TEST(SanitizeMetricNameTest, KeepsColonsPrefixesDigitsHandlesEmpty) {
  EXPECT_EQ(SanitizeMetricName("job:latency:p95"), "job:latency:p95");
  EXPECT_EQ(SanitizeMetricName("5xx.responses"), "_5xx_responses");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(SanitizeLabelNameTest, RejectsColons) {
  EXPECT_EQ(SanitizeLabelName("code"), "code");
  EXPECT_EQ(SanitizeLabelName("http:code"), "http_code");
  EXPECT_EQ(SanitizeLabelName("7th"), "_7th");
}

TEST(EscapeLabelValueTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
  // Other bytes pass through untouched.
  EXPECT_EQ(EscapeLabelValue("caf\xC3\xA9"), "caf\xC3\xA9");
}

// --- ParseMetricName -------------------------------------------------------

TEST(ParseMetricNameTest, PlainNamesHaveNoLabels) {
  const ParsedMetricName parsed = ParseMetricName("serve.select.total");
  EXPECT_EQ(parsed.name, "serve_select_total");
  EXPECT_TRUE(parsed.labels.empty());
}

TEST(ParseMetricNameTest, SplitsLabeledNames) {
  const ParsedMetricName parsed =
      ParseMetricName("serve.http.responses{code=\"200\",route=\"/v1\"}");
  EXPECT_EQ(parsed.name, "serve_http_responses");
  ASSERT_EQ(parsed.labels.size(), 2u);
  EXPECT_EQ(parsed.labels[0].first, "code");
  EXPECT_EQ(parsed.labels[0].second, "200");
  EXPECT_EQ(parsed.labels[1].first, "route");
  EXPECT_EQ(parsed.labels[1].second, "/v1");
}

TEST(ParseMetricNameTest, MalformedLabelSyntaxFallsBackToPlainName) {
  // Each of these must degrade to a sanitized whole-string name with no
  // labels, never a half-parsed label set.
  for (const char* hostile :
       {"name{unclosed=\"x\"", "name{code=200}", "name{code=\"x\"extra}",
        "name{code=\"x\";next=\"y\"}", "name{"}) {
    const ParsedMetricName parsed = ParseMetricName(hostile);
    EXPECT_TRUE(parsed.labels.empty()) << hostile;
    EXPECT_EQ(parsed.name, SanitizeMetricName(hostile)) << hostile;
  }
}

// --- RenderPrometheus ------------------------------------------------------

TEST(RenderPrometheusTest, RendersCountersAndGauges) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("serve.select.total", 42);
  snapshot.gauges.emplace_back("serve.queue.depth", 2.5);

  const std::string text = RenderPrometheus(snapshot);
  EXPECT_NE(text.find("# TYPE serve_select_total counter\n"
                      "serve_select_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\n"
                      "serve_queue_depth 2.5\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, LabelVariantsShareOneTypeHeader) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("serve.http.responses{code=\"200\"}", 10);
  snapshot.counters.emplace_back("serve.http.responses{code=\"404\"}", 3);

  const std::string text = RenderPrometheus(snapshot);
  EXPECT_EQ(text,
            "# TYPE serve_http_responses counter\n"
            "serve_http_responses{code=\"200\"} 10\n"
            "serve_http_responses{code=\"404\"} 3\n");
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulative) {
  // The registry snapshot stores per-range counts; the exposition format
  // wants running totals ending in +Inf == count.
  HistogramSnapshot histogram;
  histogram.bounds = {0.1, 1.0};
  histogram.counts = {2, 3, 4};  // (-inf,0.1], (0.1,1], (1,+inf)
  histogram.count = 9;
  histogram.sum = 5.5;
  MetricsSnapshot snapshot;
  snapshot.histograms.emplace_back("serve.latency_seconds", histogram);

  EXPECT_EQ(RenderPrometheus(snapshot),
            "# TYPE serve_latency_seconds histogram\n"
            "serve_latency_seconds_bucket{le=\"0.1\"} 2\n"
            "serve_latency_seconds_bucket{le=\"1\"} 5\n"
            "serve_latency_seconds_bucket{le=\"+Inf\"} 9\n"
            "serve_latency_seconds_sum 5.5\n"
            "serve_latency_seconds_count 9\n");
}

TEST(RenderPrometheusTest, LabeledHistogramMergesLabelsWithLe) {
  HistogramSnapshot histogram;
  histogram.bounds = {1.0};
  histogram.counts = {1, 0};
  histogram.count = 1;
  histogram.sum = 0.25;
  MetricsSnapshot snapshot;
  snapshot.histograms.emplace_back(
      "serve.http.request_seconds{path=\"/v1/select\"}", histogram);

  EXPECT_EQ(
      RenderPrometheus(snapshot),
      "# TYPE serve_http_request_seconds histogram\n"
      "serve_http_request_seconds_bucket{path=\"/v1/select\",le=\"1\"} 1\n"
      "serve_http_request_seconds_bucket{path=\"/v1/select\",le=\"+Inf\"} 1\n"
      "serve_http_request_seconds_sum{path=\"/v1/select\"} 0.25\n"
      "serve_http_request_seconds_count{path=\"/v1/select\"} 1\n");
}

TEST(RenderPrometheusTest, EscapesLabelValuesAndSanitizesLabelNames) {
  // The registry value carries a raw backslash and newline; the rendered
  // series must escape both and sanitize the dotted label name.
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("hits{bad.name=\"a\\b\nc\"}", 1);

  EXPECT_EQ(RenderPrometheus(snapshot),
            "# TYPE hits counter\n"
            "hits{bad_name=\"a\\\\b\\nc\"} 1\n");
}

TEST(RenderPrometheusTest, FamiliesAreSortedByName) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("zzz.last", 1);
  snapshot.counters.emplace_back("aaa.first", 1);

  const std::string text = RenderPrometheus(snapshot);
  EXPECT_LT(text.find("aaa_first"), text.find("zzz_last"));
}

TEST(RenderPrometheusTest, NonFiniteValuesRenderGoStyle) {
  MetricsSnapshot snapshot;
  snapshot.gauges.emplace_back("inf.gauge",
                               std::numeric_limits<double>::infinity());
  snapshot.gauges.emplace_back("nan.gauge",
                               std::numeric_limits<double>::quiet_NaN());

  const std::string text = RenderPrometheus(snapshot);
  EXPECT_NE(text.find("inf_gauge +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("nan_gauge NaN\n"), std::string::npos);
}

}  // namespace
}  // namespace podium::obs
