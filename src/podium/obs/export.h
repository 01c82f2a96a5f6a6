#ifndef PODIUM_OBS_EXPORT_H_
#define PODIUM_OBS_EXPORT_H_

#include <string>

#include "podium/json/value.h"
#include "podium/util/status.h"

namespace podium::obs {

/// Version of the exported JSON document. Bump on any incompatible change
/// (removed/renamed key, changed meaning); purely additive changes keep
/// the version. The schema is documented in DESIGN.md §11, "JSON export
/// schema".
inline constexpr int kTelemetrySchemaVersion = 2;

/// Serializes the registry — counters, gauges and histograms, span
/// timings included as `span.seconds{span="<name>"}` — as one JSON
/// document:
///
/// {
///   "schema": {"name": "podium.telemetry", "version": 2},
///   "counters": {"greedy.rounds": 8, ...},
///   "gauges": {"groups.count": 23, ...},
///   "histograms": {"<name>": {"bounds": [...], "counts": [...],
///                             "count": N, "sum": S}}
/// }
json::Value TelemetryToJson();

/// Writes TelemetryToJson() to `path`, pretty-printed.
Status WriteTelemetryJson(const std::string& path);

/// Human-readable timing summary for the CLI's --timing: a flat table of
/// span name, completions and total seconds read from the span
/// histograms, followed by the non-zero counters and the gauges.
std::string RenderTimingSummary();

}  // namespace podium::obs

#endif  // PODIUM_OBS_EXPORT_H_
