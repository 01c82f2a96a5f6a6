#ifndef PODIUM_TELEMETRY_TELEMETRY_H_
#define PODIUM_TELEMETRY_TELEMETRY_H_

// Forwarding header for the repository benchmark (perfbench/), which
// still spells the registry `telemetry::MetricsRegistry` and calls
// `telemetry::SetEnabled(true)`. The registry lives in obs/metrics.h and
// always records, so SetEnabled does nothing. The next change to the
// benchmark moves it to obs/ and deletes this header. No module may
// include it (kModuleDag lists it as nobody's dependency).

#include "podium/obs/metrics.h"

namespace podium::telemetry {

using obs::MetricsRegistry;

/// Inert: recording is always on.
inline void SetEnabled(bool /*enabled*/) {}

}  // namespace podium::telemetry

#endif  // PODIUM_TELEMETRY_TELEMETRY_H_
