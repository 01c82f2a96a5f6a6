#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::size_t SamplesBeyondP99(std::size_t count) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(count)));
  return count - rank;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  summary.p50 = Percentile(values, 0.50);
  summary.has_p99 = SamplesBeyondP99(values.size()) >= 10;
  if (summary.has_p99) summary.p99 = Percentile(values, 0.99);
  return summary;
}

Metric TimingMetric(std::string name, std::string unit,
                    const std::vector<double>& values) {
  const Summary summary = Summarize(values);
  Metric metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.value = summary.p50;
  metric.count = summary.count;
  metric.has_p99 = summary.has_p99;
  metric.p99 = summary.p99;
  return metric;
}

void PrintLedger(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-30s %14s %-6s %8s %14s\n", "metric", "value", "unit", "n",
              "p99");
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %14.6g %-6s %8zu", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.count);
    if (metric.has_p99) {
      std::printf(" %14.6g", metric.p99);
    } else {
      std::printf(" %14s", "-");
    }
    std::printf("\n");
  }
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // %.17g keeps every digit the measurement has.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += JsonQuote(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
