#ifndef PODIUM_OBS_PROMETHEUS_H_
#define PODIUM_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "podium/obs/metrics.h"

namespace podium::obs {

/// Renders a MetricsSnapshot in the Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` line per metric family, then one sample
/// line per series. Histograms emit cumulative `_bucket{le="..."}` series
/// ending in `le="+Inf"`, plus `_sum` and `_count`.
///
/// Registry names map to Prometheus names by sanitization: characters
/// outside [a-zA-Z0-9_:] become '_' (so "serve.http.request_seconds"
/// renders as "serve_http_request_seconds") and a leading digit gets a
/// '_' prefix.
///
/// A registry name may carry labels with the Prometheus-like convention
///   serve.http.responses{code="200"}
/// — the renderer splits the base name from the label set, sanitizes
/// label names, escapes label values (backslash, double quote, newline)
/// and merges the labels into every emitted series of that metric.
/// Malformed label syntax falls back to sanitizing the whole string as a
/// plain name, so no registry content can corrupt the exposition.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// Sanitizes one metric name (without labels): [a-zA-Z0-9_:], '_' prefix
/// when the first character is a digit, "_" for an empty input.
std::string SanitizeMetricName(std::string_view name);

/// Sanitizes a label name: like metric names but ':' is also invalid.
std::string SanitizeLabelName(std::string_view name);

/// Escapes a label value per the exposition format: \\ , \" and \n.
std::string EscapeLabelValue(std::string_view value);

/// A registry name split into base name + label pairs (see above).
struct ParsedMetricName {
  std::string name;                                        // sanitized
  std::vector<std::pair<std::string, std::string>> labels; // name, raw value
};
ParsedMetricName ParseMetricName(std::string_view registry_name);

}  // namespace podium::obs

#endif  // PODIUM_OBS_PROMETHEUS_H_
