#include "podium/obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>

#include "podium/util/string_util.h"

namespace podium::obs {

namespace {

bool ValidNameChar(char c, bool allow_colon) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         (allow_colon && c == ':');
}

std::string Sanitize(std::string_view name, bool allow_colon) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out += ValidNameChar(c, allow_colon) ? c : '_';
  if (out.empty()) return "_";
  if (std::isdigit(static_cast<unsigned char>(out.front())) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Formats a sample value. Prometheus accepts Go-style floats; counts are
/// integral so they render without an exponent or trailing zeros, and
/// fractional values use the shortest representation that round-trips
/// (so a 0.1 bucket bound reads "0.1", not "0.10000000000000001").
std::string FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    return util::StringPrintf("%lld",
                              static_cast<long long>(value));
  }
  for (int precision = 1; precision < 17; ++precision) {
    std::string out = util::StringPrintf("%.*g", precision, value);
    if (std::strtod(out.c_str(), nullptr) == value) return out;
  }
  return util::StringPrintf("%.17g", value);
}

std::string RenderLabels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string* extra_name, const std::string* extra_value) {
  if (labels.empty() && extra_name == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeLabelName(name);
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  if (extra_name != nullptr) {
    if (!first) out += ",";
    out += *extra_name;
    out += "=\"";
    out += *extra_value;  // bucket bounds need no escaping
    out += "\"";
  }
  out += "}";
  return out;
}

/// One metric family: every series that shares a sanitized base name gets
/// a single # TYPE header, as the format requires.
struct Family {
  std::string type;
  std::vector<std::string> lines;
};

void AddSample(std::map<std::string, Family>& families,
               const ParsedMetricName& parsed, const std::string& type,
               const std::string& suffix, const std::string& labels,
               double value) {
  Family& family = families[parsed.name];
  if (family.type.empty()) family.type = type;
  family.lines.push_back(parsed.name + suffix + labels + " " +
                         FormatValue(value));
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  return Sanitize(name, /*allow_colon=*/true);
}

std::string SanitizeLabelName(std::string_view name) {
  return Sanitize(name, /*allow_colon=*/false);
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

ParsedMetricName ParseMetricName(std::string_view registry_name) {
  ParsedMetricName parsed;
  const std::size_t open = registry_name.find('{');
  if (open == std::string_view::npos) {
    parsed.name = SanitizeMetricName(registry_name);
    return parsed;
  }
  // name{key="value",key2="value2"} — anything else falls back to treating
  // the full string as a (sanitized) plain name.
  if (registry_name.back() != '}') {
    parsed.name = SanitizeMetricName(registry_name);
    return parsed;
  }
  std::string_view inside =
      registry_name.substr(open + 1, registry_name.size() - open - 2);
  std::vector<std::pair<std::string, std::string>> labels;
  while (!inside.empty()) {
    const std::size_t eq = inside.find("=\"");
    if (eq == std::string_view::npos) {
      parsed.name = SanitizeMetricName(registry_name);
      return parsed;
    }
    const std::size_t close = inside.find('"', eq + 2);
    if (close == std::string_view::npos) {
      parsed.name = SanitizeMetricName(registry_name);
      return parsed;
    }
    labels.emplace_back(std::string(inside.substr(0, eq)),
                        std::string(inside.substr(eq + 2, close - eq - 2)));
    inside = inside.substr(close + 1);
    if (!inside.empty()) {
      if (inside.front() != ',') {
        parsed.name = SanitizeMetricName(registry_name);
        return parsed;
      }
      inside = inside.substr(1);
    }
  }
  parsed.name = SanitizeMetricName(registry_name.substr(0, open));
  parsed.labels = std::move(labels);
  return parsed;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  // Families keyed by sanitized base name so label-variants of one metric
  // share a single # TYPE header; std::map keeps the output sorted and
  // deterministic.
  std::map<std::string, Family> families;

  for (const auto& [name, value] : snapshot.counters) {
    const ParsedMetricName parsed = ParseMetricName(name);
    AddSample(families, parsed, "counter", "",
              RenderLabels(parsed.labels, nullptr, nullptr),
              static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const ParsedMetricName parsed = ParseMetricName(name);
    AddSample(families, parsed, "gauge", "",
              RenderLabels(parsed.labels, nullptr, nullptr), value);
  }
  static const std::string kLe = "le";
  for (const auto& [name, histogram] : snapshot.histograms) {
    const ParsedMetricName parsed = ParseMetricName(name);
    Family& family = families[parsed.name];
    if (family.type.empty()) family.type = "histogram";
    // Buckets are cumulative: bucket i in the snapshot counts
    // observations in (bounds[i-1], bounds[i]]; the exposition format
    // wants counts of everything <= the bound.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      cumulative += i < histogram.counts.size() ? histogram.counts[i] : 0;
      const std::string bound = FormatValue(histogram.bounds[i]);
      family.lines.push_back(
          parsed.name + "_bucket" +
          RenderLabels(parsed.labels, &kLe, &bound) + " " +
          FormatValue(static_cast<double>(cumulative)));
    }
    static const std::string kInf = "+Inf";
    family.lines.push_back(parsed.name + "_bucket" +
                           RenderLabels(parsed.labels, &kLe, &kInf) + " " +
                           FormatValue(static_cast<double>(histogram.count)));
    const std::string labels = RenderLabels(parsed.labels, nullptr, nullptr);
    family.lines.push_back(parsed.name + "_sum" + labels + " " +
                           FormatValue(histogram.sum));
    family.lines.push_back(parsed.name + "_count" + labels + " " +
                           FormatValue(static_cast<double>(histogram.count)));
  }

  std::string out;
  for (const auto& [name, family] : families) {
    out += "# TYPE " + name + " " + family.type + "\n";
    for (const std::string& line : family.lines) {
      out += line;
      out += "\n";
    }
  }
  return out;
}

}  // namespace podium::obs
