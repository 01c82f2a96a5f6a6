#ifndef PODIUM_CHECK_FUZZ_H_
#define PODIUM_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "podium/serve/http.h"
#include "podium/util/result.h"

namespace podium::check {

/// The outcome of a fuzz sweep: iterations executed and any contract
/// violations observed (crashes and sanitizer aborts terminate the
/// process, which is the point of running this under ASan/UBSan in CI).
struct FuzzReport {
  int iterations = 0;
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
};

/// Structure-aware fuzz of json::Parse through the production entry point
/// (serve's UntrustedParseOptions limits): valid documents must parse and
/// round-trip; random mutations and structured noise must either parse or
/// fail with ParseError — never crash, hang, or corrupt.
FuzzReport FuzzJson(std::uint64_t seed, int iterations);

/// Structure-aware fuzz of serve::TryParseHttpRequest, the parser the
/// server's event loop frames requests with. Valid serialized requests
/// must round-trip, also split in two reads at a random byte and
/// pipelined behind another request (each parse equal to the one-shot
/// parse, the successor left in the buffer); adversarial Content-Length
/// shapes (signs, embedded whitespace, conflicting duplicates, overflow)
/// must be rejected with ParseError; random byte mutations must never
/// crash. Responses get the same through serve::ReadHttpResponse.
FuzzReport FuzzHttpRequests(std::uint64_t seed, int iterations);

/// Parses `bytes` with serve::TryParseHttpRequest as the event loop does,
/// the end of `bytes` standing for the peer hanging up: an incomplete
/// request is IoError, empty input NotFound. Exposed for tests and for
/// replaying fuzz findings.
Result<serve::HttpRequest> ParseRequestBytes(const std::string& bytes,
                                             const serve::HttpLimits& limits =
                                                 serve::HttpLimits{});

/// The response-side counterpart, through serve::ReadHttpResponse over a
/// socketpair as the client reads, for the status-line hardening tests.
Result<serve::HttpResponse> ParseResponseBytes(
    const std::string& bytes,
    const serve::HttpLimits& limits = serve::HttpLimits{});

}  // namespace podium::check

#endif  // PODIUM_CHECK_FUZZ_H_
