#include "podium/obs/export.h"

#include <utility>

#include "podium/json/writer.h"
#include "podium/obs/metrics.h"
#include "podium/util/string_util.h"

namespace podium::obs {

namespace {

json::Value HistogramToJson(const HistogramSnapshot& histogram) {
  json::Object object;
  json::Array bounds;
  for (double bound : histogram.bounds) bounds.emplace_back(bound);
  object.Set("bounds", json::Value(std::move(bounds)));
  json::Array counts;
  for (std::uint64_t count : histogram.counts) {
    counts.emplace_back(static_cast<double>(count));
  }
  object.Set("counts", json::Value(std::move(counts)));
  object.Set("count", json::Value(static_cast<double>(histogram.count)));
  object.Set("sum", json::Value(histogram.sum));
  return json::Value(std::move(object));
}

}  // namespace

json::Value TelemetryToJson() {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();

  json::Object root;
  json::Object schema;
  schema.Set("name", json::Value("podium.telemetry"));
  schema.Set("version", json::Value(kTelemetrySchemaVersion));
  root.Set("schema", json::Value(std::move(schema)));

  json::Object counters;
  for (const auto& [name, value] : metrics.counters) {
    counters.Set(name, json::Value(static_cast<double>(value)));
  }
  root.Set("counters", json::Value(std::move(counters)));

  json::Object gauges;
  for (const auto& [name, value] : metrics.gauges) {
    gauges.Set(name, json::Value(value));
  }
  root.Set("gauges", json::Value(std::move(gauges)));

  json::Object histograms;
  for (const auto& [name, histogram] : metrics.histograms) {
    histograms.Set(name, HistogramToJson(histogram));
  }
  root.Set("histograms", json::Value(std::move(histograms)));

  return json::Value(std::move(root));
}

Status WriteTelemetryJson(const std::string& path) {
  json::WriteOptions options;
  options.indent = 2;
  return json::WriteFile(TelemetryToJson(), path, options);
}

std::string RenderTimingSummary() {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  std::string out = "spans (completions, total wall seconds):\n";
  bool any_span = false;
  for (const auto& [name, histogram] : metrics.histograms) {
    const std::string_view span = SpanNameOf(name);
    if (span.empty() || histogram.count == 0) continue;
    any_span = true;
    out += util::StringPrintf("  %-36.*s x%-8llu %12.6fs\n",
                              static_cast<int>(span.size()), span.data(),
                              static_cast<unsigned long long>(histogram.count),
                              histogram.sum);
  }
  if (!any_span) out += "  (no spans recorded)\n";

  bool any_counter = false;
  for (const auto& [name, value] : metrics.counters) {
    if (value == 0) continue;
    if (!any_counter) {
      out += "\ncounters:\n";
      any_counter = true;
    }
    out += util::StringPrintf("  %-36s %llu\n", name.c_str(),
                              static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : metrics.gauges) {
    out += util::StringPrintf("  %-36s %g  (gauge)\n", name.c_str(), value);
  }
  return out;
}

}  // namespace podium::obs
