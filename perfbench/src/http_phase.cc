#include "http_phase.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "server.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kRunStart = Clock::now();

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct ClientResult {
  std::vector<Sample> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  std::vector<Span> spans;

  void Fail(std::string error) {
    ++failed;
    if (first_error.empty()) first_error = std::move(error);
  }
};

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kRunStart)
      .count();
}

std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

PhaseResult RunPhase(const PhaseOptions& options, const Traffic& traffic) {
  const std::vector<std::string>& bodies = *traffic.bodies;
  const std::vector<std::string>& references = *traffic.references;
  const std::vector<std::uint32_t>& stream = *traffic.stream;
  const std::size_t clients = options.each_body_once ? 1 : options.clients;

  constexpr std::size_t kOpen = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> stop_at{options.each_body_once ? bodies.size()
                                                          : kOpen};
  std::atomic<std::size_t> ok_count{0};
  std::vector<ClientResult> results(clients);
  const std::uint64_t phase_span = NextSpanId();
  const double phase_start_us = NowUs();
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();

  // Once the phase has run long enough, it stops issuing at the next
  // epoch boundary, so every phase sends the mix in its exact proportions.
  const auto next_request = [&]() -> std::size_t {
    if (stop_at.load(std::memory_order_relaxed) == kOpen) {
      const double seconds = MillisBetween(start, Clock::now()) / 1e3;
      const bool enough =
          seconds >= options.seconds &&
          ok_count.load(std::memory_order_relaxed) >= options.min_samples;
      if (seconds >= options.max_seconds) {
        std::size_t open = kOpen;
        stop_at.compare_exchange_strong(open, 0);
      } else if (enough) {
        const std::size_t epoch = traffic.epoch;
        const std::size_t boundary =
            (cursor.load() + epoch - 1) / epoch * epoch;
        std::size_t open = kOpen;
        stop_at.compare_exchange_strong(open, boundary);
      }
    }
    const std::size_t n = cursor.fetch_add(1, std::memory_order_relaxed);
    return n < stop_at.load(std::memory_order_relaxed) ? n : kOpen;
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& result = results[c];
      HttpConnection connection;
      bool connected = false;
      HttpReply reply;
      std::string error;
      for (;;) {
        const std::size_t n = next_request();
        if (n == kOpen) break;
        const std::uint32_t body =
            options.each_body_once
                ? static_cast<std::uint32_t>(n)
                : stream[(options.stream_offset + n) % stream.size()];
        ++result.attempted;
        if (!connected) {
          connected = connection.Connect(options.port, &error);
          if (!connected) {
            result.Fail("connect: " + error);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
          }
        }
        const std::uint64_t request_id = options.trace ? NextSpanId() : 0;
        const double sent_us = options.trace ? NowUs() : 0.0;
        const Clock::time_point sent = Clock::now();
        if (!connection.RoundTrip("POST", "/v1/select", bodies[body], &reply,
                                  &error)) {
          connected = false;
          result.Fail("transport: " + error);
          continue;
        }
        const double rtt_ms = MillisBetween(sent, Clock::now());
        const double check_us = options.trace ? NowUs() : 0.0;
        const bool ok = reply.status >= 200 && reply.status < 300;
        const bool matched = ok && reply.body == references[body];
        if (options.trace) {
          result.spans.push_back(Span{request_id, phase_span, request_id,
                                      "request", sent_us, check_us});
          result.spans.push_back(Span{NextSpanId(), request_id, request_id,
                                      "check", check_us, NowUs()});
        }
        if (!ok) {
          result.Fail("HTTP " + std::to_string(reply.status) + ": " +
                      reply.body.substr(0, 200));
          continue;
        }
        if (!matched) {
          result.Fail("reply to body #" + std::to_string(body) +
                      " differs from its reference");
          continue;
        }
        result.samples.push_back(Sample{
            rtt_ms, reply.queue_ms, reply.run_ms, body,
            static_cast<std::uint32_t>(reply.body.size()), reply.cache_hit,
            reply.coalesced});
        ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult phase;
  phase.wall_seconds = MillisBetween(start, Clock::now()) / 1e3;
  phase.runner_cpu_cores =
      phase.wall_seconds > 0 ? (CpuSeconds() - cpu_start) / phase.wall_seconds
                             : 0.0;
  if (options.trace) {
    phase.spans.push_back(Span{phase_span, 0, 0, "phase." + options.name,
                               phase_start_us, NowUs()});
  }
  for (ClientResult& result : results) {
    phase.samples.insert(phase.samples.end(), result.samples.begin(),
                         result.samples.end());
    phase.attempted += result.attempted;
    phase.stream_used += result.attempted;
    phase.failed += result.failed;
    if (phase.first_error.empty()) phase.first_error = result.first_error;
    phase.spans.insert(phase.spans.end(), result.spans.begin(),
                       result.spans.end());
  }
  return phase;
}

}  // namespace perfbench
