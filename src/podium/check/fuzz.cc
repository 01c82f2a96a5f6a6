#include "podium/check/fuzz.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <optional>
#include <utility>

#include "podium/json/parser.h"
#include "podium/json/writer.h"
#include "podium/serve/handlers.h"
#include "podium/util/rng.h"
#include "podium/util/string_util.h"

namespace podium::check {

namespace {

void AddFailure(FuzzReport& report, std::uint64_t seed, int iteration,
                const std::string& message) {
  report.failures.push_back(util::StringPrintf(
      "[seed %llu iter %d] ", static_cast<unsigned long long>(seed),
      iteration) + message);
}

/// Applies 1..max_mutations random byte edits (flip, insert, delete).
std::string Mutate(util::Rng& rng, std::string input, int max_mutations) {
  const int mutations = 1 + static_cast<int>(rng.NextBounded(
                                static_cast<std::uint64_t>(max_mutations)));
  for (int i = 0; i < mutations && !input.empty(); ++i) {
    const std::size_t pos = rng.NextBounded(input.size());
    switch (rng.NextBounded(3)) {
      case 0:
        input[pos] = static_cast<char>(rng.NextBounded(256));
        break;
      case 1:
        input.insert(pos, 1, static_cast<char>(rng.NextBounded(256)));
        break;
      default:
        input.erase(pos, 1);
        break;
    }
  }
  return input;
}

/// Random JSON value tree bounded well inside UntrustedParseOptions'
/// depth/node limits, so valid documents must always parse.
json::Value RandomDocument(util::Rng& rng, int depth) {
  switch (rng.NextBounded(depth <= 0 ? 4 : 6)) {
    case 0:
      return json::Value(nullptr);
    case 1:
      return json::Value(rng.NextBernoulli(0.5));
    case 2:
      return json::Value(rng.NextDouble(-1e9, 1e9));
    case 3: {
      std::string s;
      const std::size_t length = rng.NextBounded(16);
      for (std::size_t i = 0; i < length; ++i) {
        s.push_back(static_cast<char>(32 + rng.NextBounded(95)));
      }
      return json::Value(std::move(s));
    }
    case 4: {
      json::Array array;
      const std::size_t length = rng.NextBounded(5);
      for (std::size_t i = 0; i < length; ++i) {
        array.push_back(RandomDocument(rng, depth - 1));
      }
      return json::Value(std::move(array));
    }
    default: {
      json::Object object;
      const std::size_t length = rng.NextBounded(5);
      for (std::size_t i = 0; i < length; ++i) {
        object.Set("k" + std::to_string(i), RandomDocument(rng, depth - 1));
      }
      return json::Value(std::move(object));
    }
  }
}

/// Frames `reads` the way the event loop does: append each read to the
/// connection buffer, then parse requests off its front until one is
/// incomplete, which must leave the buffer untouched. The reads carry
/// `wires` back to back; each complete parse must equal the next wire's
/// one-shot parse and leave exactly the bytes after that wire in the
/// buffer. Returns the violation, or "".
std::string FramingViolation(const std::vector<std::string>& reads,
                             const std::vector<std::string>& wires,
                             const serve::HttpLimits& limits) {
  std::string received;      // every byte read so far
  std::size_t consumed = 0;  // the bytes of the wires framed so far
  std::size_t framed = 0;
  std::string buffer;
  for (const std::string& read : reads) {
    received += read;
    buffer += read;
    for (;;) {
      const std::string before = buffer;
      Result<std::optional<serve::HttpRequest>> parsed =
          serve::TryParseHttpRequest(buffer, limits);
      if (!parsed.ok()) return "rejected: " + parsed.status().message();
      if (!parsed.value().has_value()) {
        if (buffer != before) return "incomplete parse consumed bytes";
        break;
      }
      if (framed == wires.size()) return "framed a request nobody sent";
      Result<serve::HttpRequest> one_shot =
          ParseRequestBytes(wires[framed], limits);
      if (!one_shot.ok() || *parsed.value() != one_shot.value()) {
        return util::StringPrintf("request %zu differs from its one-shot parse",
                                  framed);
      }
      consumed += wires[framed++].size();
      if (consumed > received.size() || buffer != received.substr(consumed)) {
        return "the bytes after a request did not stay in the buffer";
      }
    }
  }
  return framed == wires.size() ? "" : "a request never completed";
}

/// Builds a syntactically valid request with randomized fields.
serve::HttpRequest RandomRequest(util::Rng& rng) {
  serve::HttpRequest request;
  request.method = rng.NextBernoulli(0.5) ? "POST" : "GET";
  request.target = "/v1/select";
  const std::size_t extra = rng.NextBounded(3);
  for (std::size_t i = 0; i < extra; ++i) {
    request.headers.emplace_back("X-Fuzz-" + std::to_string(i),
                                 "value-" + std::to_string(rng.NextBounded(10)));
  }
  if (request.method == "POST") {
    const std::size_t length = rng.NextBounded(64);
    for (std::size_t i = 0; i < length; ++i) {
      request.body.push_back(static_cast<char>(32 + rng.NextBounded(95)));
    }
  }
  return request;
}

}  // namespace

Result<serve::HttpRequest> ParseRequestBytes(const std::string& bytes,
                                             const serve::HttpLimits& limits) {
  std::string buffer = bytes;
  Result<std::optional<serve::HttpRequest>> parsed =
      serve::TryParseHttpRequest(buffer, limits);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().has_value()) {
    // The loop would wait for more bytes, but the input has ended.
    if (bytes.empty()) return Status::NotFound("connection closed");
    return Status::IoError("connection closed mid-message");
  }
  return std::move(*parsed.value());
}

Result<serve::HttpResponse> ParseResponseBytes(
    const std::string& bytes, const serve::HttpLimits& limits) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError(std::string("socketpair: ") +
                           std::strerror(errno));
  }
  Status written = serve::WriteAll(fds[1], bytes);
  ::close(fds[1]);  // EOF after the payload, like a server hanging up
  if (!written.ok()) {
    ::close(fds[0]);
    return written;
  }
  serve::BufferedReader reader(fds[0]);
  Result<serve::HttpResponse> response =
      serve::ReadHttpResponse(reader, limits);
  ::close(fds[0]);
  return response;
}

FuzzReport FuzzJson(std::uint64_t seed, int iterations) {
  FuzzReport report;
  util::Rng rng(seed);
  const json::ParseOptions limits = serve::UntrustedParseOptions();
  for (int iter = 0; iter < iterations; ++iter) {
    ++report.iterations;
    const json::Value document = RandomDocument(rng, 4);
    const std::string text = json::Write(document);

    // A valid document inside the limits must parse back to itself.
    Result<json::Value> parsed = json::Parse(text, limits);
    if (!parsed.ok()) {
      AddFailure(report, seed, iter,
                 "valid document rejected: " + parsed.status().message());
      continue;
    }
    if (!(parsed.value() == document)) {
      AddFailure(report, seed, iter, "round-trip mismatch for: " + text);
    }

    // Mutations must parse cleanly or fail with ParseError; whatever
    // parses must survive a re-serialize/re-parse cycle.
    const std::string mutated = Mutate(rng, text, 6);
    Result<json::Value> fuzzed = json::Parse(mutated, limits);
    if (fuzzed.ok()) {
      const std::string rewritten = json::Write(fuzzed.value());
      Result<json::Value> reparsed = json::Parse(rewritten, limits);
      if (!reparsed.ok() || !(reparsed.value() == fuzzed.value())) {
        AddFailure(report, seed, iter,
                   "accepted mutation does not round-trip: " + mutated);
      }
    } else if (fuzzed.status().code() != StatusCode::kParseError) {
      AddFailure(report, seed, iter,
                 "mutation failed with non-ParseError status: " +
                     fuzzed.status().message());
    }
  }
  return report;
}

FuzzReport FuzzHttpRequests(std::uint64_t seed, int iterations) {
  FuzzReport report;
  util::Rng rng(seed);
  const serve::HttpLimits limits;

  // Content-Length shapes the parser must reject (request-smuggling
  // class) and shapes it must accept, interleaved with random mutations.
  const char* kRejected[] = {"+5", "-5", "5 5", "5\t5", "5,5", "0x10",
                             "5.0", "", "99999999999999999999999999"};

  for (int iter = 0; iter < iterations; ++iter) {
    ++report.iterations;
    const serve::HttpRequest request = RandomRequest(rng);
    const std::string wire = serve::SerializeRequest(request);

    Result<serve::HttpRequest> parsed = ParseRequestBytes(wire, limits);
    if (!parsed.ok()) {
      AddFailure(report, seed, iter,
                 "valid request rejected: " + parsed.status().message());
    } else if (parsed->method != request.method ||
               parsed->target != request.target ||
               parsed->body != request.body) {
      AddFailure(report, seed, iter, "request round-trip mismatch");
    } else {
      // The same wire as the loop may receive it: in two reads split at a
      // random byte, and pipelined behind another request.
      const std::size_t split = rng.NextBounded(wire.size());
      const std::string split_violation = FramingViolation(
          {wire.substr(0, split), wire.substr(split)}, {wire}, limits);
      if (!split_violation.empty()) {
        AddFailure(report, seed, iter,
                   util::StringPrintf("split at byte %zu: ", split) +
                       split_violation);
      }
      const std::string lead = serve::SerializeRequest(RandomRequest(rng));
      const std::string pipeline_violation =
          FramingViolation({lead + wire}, {lead, wire}, limits);
      if (!pipeline_violation.empty()) {
        AddFailure(report, seed, iter, "pipelined: " + pipeline_violation);
      }
    }

    // Adversarial Content-Length: build the head by hand so the
    // serializer cannot normalize it away.
    const char* bad = kRejected[rng.NextBounded(std::size(kRejected))];
    const std::string bad_wire = "POST /v1/select HTTP/1.1\r\nContent-Length: " +
                                 std::string(bad) + "\r\n\r\nhello";
    Result<serve::HttpRequest> rejected = ParseRequestBytes(bad_wire, limits);
    if (rejected.ok() ||
        rejected.status().code() != StatusCode::kParseError) {
      AddFailure(report, seed, iter,
                 std::string("Content-Length '") + bad + "' not rejected");
    }

    const std::string conflicting =
        "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n"
        "\r\nhelloX";
    Result<serve::HttpRequest> smuggled =
        ParseRequestBytes(conflicting, limits);
    if (smuggled.ok() ||
        smuggled.status().code() != StatusCode::kParseError) {
      AddFailure(report, seed, iter,
                 "conflicting Content-Length headers not rejected");
    }

    // Byte-level mutations of a valid request: any Status is acceptable,
    // crashing or reading out of bounds is not (ASan's department).
    (void)ParseRequestBytes(Mutate(rng, wire, 8), limits);

    // Same for the response parser, seeded with a valid response.
    serve::HttpResponse response;
    response.status = 200 + static_cast<int>(rng.NextBounded(300));
    response.reason = "Fuzz";
    response.body = request.body;
    const std::string response_wire = serve::SerializeResponse(response);
    Result<serve::HttpResponse> response_parsed =
        ParseResponseBytes(response_wire, limits);
    if (!response_parsed.ok() ||
        response_parsed->status != response.status ||
        response_parsed->body != response.body) {
      AddFailure(report, seed, iter, "response round-trip mismatch");
    }
    (void)ParseResponseBytes(Mutate(rng, response_wire, 8), limits);
  }
  return report;
}

}  // namespace podium::check
