#ifndef PERFBENCH_HTTP_PHASE_H_
#define PERFBENCH_HTTP_PHASE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A span the benchmark records around its own calls: name, start and end
/// (microseconds on the run's clock), the parent span and the request it
/// belongs to. Kept in memory and written when the run ends.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Microseconds since the run's clock started.
double NowUs();

/// A fresh span id (process-wide, never 0).
std::uint64_t NextSpanId();

/// What the clients send and how they judge the replies.
struct Traffic {
  const std::vector<std::string>* bodies = nullptr;
  /// The expected reply body per request body.
  const std::vector<std::string>* references = nullptr;
  /// Request order; phases cycle through it.
  const std::vector<std::uint32_t>* stream = nullptr;
  /// The stream is made of epochs of this many requests, each holding the
  /// mix in its exact proportions; timed phases send whole epochs.
  std::size_t epoch = 1;
};

struct PhaseOptions {
  std::string name;
  int port = 0;
  std::size_t clients = 1;
  /// The phase runs at least this long and until it has min_samples
  /// 2xx replies, then to the end of the stream's current epoch, but
  /// never past max_seconds.
  double seconds = 1.0;
  std::size_t min_samples = 0;
  double max_seconds = 120.0;
  /// Where in the stream the phase starts (an epoch boundary).
  std::size_t stream_offset = 0;
  /// Send each distinct body once, in order, on one client (the fill
  /// pass), instead of timing the stream.
  bool each_body_once = false;
  /// Record a span per request and per reply check.
  bool trace = false;
};

/// One 2xx reply that matched its reference.
struct Sample {
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::uint32_t body = 0;
  std::uint32_t bytes = 0;
  bool cache_hit = false;
  bool coalesced = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  double wall_seconds = 0.0;
  /// The benchmark process's CPU time during the phase, in cores
  /// (CPU seconds per wall second).
  double runner_cpu_cores = 0.0;
  /// How many requests the phase consumed from the stream.
  std::size_t stream_used = 0;
  std::vector<Span> spans;
};

/// Runs one closed-loop phase: `clients` connections, each sending its
/// next request when the previous reply arrives. Every reply is compared
/// byte for byte with its reference; a mismatch, a non-2xx status or a
/// transport error counts as a failed operation.
PhaseResult RunPhase(const PhaseOptions& options, const Traffic& traffic);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_PHASE_H_
