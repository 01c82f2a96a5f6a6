#include "podium/check/fuzz.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <optional>
#include <utility>

#include "podium/check/oracle.h"
#include "podium/json/parser.h"
#include "podium/json/writer.h"
#include "podium/profile/repository_io.h"
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

/// A JSON document kept as text pieces, so it can hold what json::Value
/// cannot: repeated keys, and numbers and strings in any spelling.
struct TextDoc {
  char kind = 's';   // '{', '[', or 's' for a scalar spelled in `text`
  std::string text;  // a scalar's JSON spelling
  std::vector<std::pair<std::string, TextDoc>> members;  // keys as JSON
  std::vector<TextDoc> elements;
};

TextDoc Spelled(std::string text) {
  TextDoc doc;
  doc.text = std::move(text);
  return doc;
}

/// Writes `doc` compact, or indented by two spaces per level.
void Render(const TextDoc& doc, bool indent, int level, std::string& out) {
  if (doc.kind == 's') {
    out += doc.text;
    return;
  }
  const bool object = doc.kind == '{';
  const std::size_t count = object ? doc.members.size() : doc.elements.size();
  out += doc.kind;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ',';
    if (indent) out.append("\n").append(2 * (level + 1), ' ');
    if (object) {
      out += doc.members[i].first;
      out += indent ? ": " : ":";
      Render(doc.members[i].second, indent, level + 1, out);
    } else {
      Render(doc.elements[i], indent, level + 1, out);
    }
  }
  if (indent && count > 0) out.append("\n").append(2 * level, ' ');
  out += object ? '}' : ']';
}

template <std::size_t N>
std::string Pick(util::Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.NextBounded(N)];
}

// Labels and names as JSON spellings. Some pairs spell the same bytes
// (escaped and raw UTF-8), so they are one key to both readers.
constexpr const char* kLabels[] = {
    R"("livesIn Tokyo")", R"("avgRating Mexican")", R"("visitFreq Bars")",
    R"("caf\u00e9")",     "\"caf\xc3\xa9\"",
    R"("\u65e5\u672c")",  "\"\xe6\x97\xa5\xe6\x9c\xac\"",
    R"("\ud83d\ude00 x")", R"("a\u0000b")",        R"("tab\tx")",
    R"("q\"uote")",        R"("sl\/ash")",          R"("")"};
constexpr const char* kNames[] = {
    R"("Alice")", R"("Zo\u00eb")", "\"Zo\xc3\xab\"", R"("n\u0000ul")",
    R"("\u00c5sa")", R"("user 0")", R"("us\u0065r 1")"};
// Scores that are not plain numbers in [0, 1]; 1e-310 and
// 2.2250738585072012e-308 are subnormal, which strtod reports as out of
// range (from_chars would accept them).
constexpr const char* kEdgeScores[] = {
    "-0",    "0.0e0", "1E0",   "1e-310", "2.2250738585072012e-308",
    "1e400", "1.5",   "-0.5",  "null",   R"("high")",
    "[]",    "{}",    "[0.5]", "0.50000000000000001"};
constexpr const char* kKinds[] = {R"("boolean")", R"("score")", R"("")"};
constexpr const char* kBadKinds[] = {R"("weird")", "5", "null", "true",
                                     R"(["boolean"])"};
constexpr const char* kNonObjects[] = {"5", "[]", "null", R"("x")", "true"};

/// Arrays nested `levels` deep.
TextDoc Nested(int levels) {
  TextDoc doc = Spelled("0");
  for (int i = 0; i < levels; ++i) {
    TextDoc outer;
    outer.kind = '[';
    outer.elements.push_back(std::move(doc));
    doc = std::move(outer);
  }
  return doc;
}

/// A score: a number in [0, 1], a bool, or (unless `clean`) an edge case.
TextDoc RandomScore(util::Rng& rng, bool clean) {
  const std::uint64_t roll = rng.NextBounded(10);
  if (roll < 2) return Spelled(rng.NextBernoulli(0.5) ? "true" : "false");
  if (roll < 8 || clean) {
    return Spelled(util::StringPrintf("%.17g", rng.NextDouble()));
  }
  return Spelled(Pick(rng, kEdgeScores));
}

/// A value under an unknown key, occasionally nested past the depth limit.
TextDoc RandomExtra(util::Rng& rng) {
  if (rng.NextBernoulli(0.1)) return Nested(129);
  TextDoc extra;
  extra.kind = '{';
  extra.members.emplace_back(R"("users")", Spelled("[]"));  // not the root's
  extra.members.emplace_back(R"("name")", Spelled(R"("shadow")"));
  return extra;
}

/// A user object, or (unless `clean`) sometimes a malformed one. Members
/// come in random order, keys sometimes repeated.
TextDoc RandomUser(util::Rng& rng, std::size_t index, bool clean) {
  if (!clean && rng.NextBernoulli(0.03)) return Spelled(Pick(rng, kNonObjects));
  TextDoc user;
  user.kind = '{';
  auto name = [&] {
    if (!clean && rng.NextBernoulli(0.05)) return Spelled("7");
    if (rng.NextBernoulli(clean ? 0.0 : 0.1)) return Spelled(Pick(rng, kNames));
    return Spelled(util::StringPrintf("\"user %zu\"", index));
  };
  auto properties = [&] {
    if (!clean && rng.NextBernoulli(0.03)) {
      return Spelled(Pick(rng, kNonObjects));
    }
    TextDoc props;
    props.kind = '{';
    const std::size_t count = rng.NextBounded(7);
    for (std::size_t i = 0; i < count; ++i) {
      props.members.emplace_back(Pick(rng, kLabels), RandomScore(rng, clean));
    }
    return props;
  };
  if (clean || !rng.NextBernoulli(0.03)) {
    user.members.emplace_back(R"("name")", name());
  }
  if (rng.NextBernoulli(0.9)) {
    user.members.emplace_back(R"("properties")", properties());
  }
  if (rng.NextBernoulli(0.1)) user.members.emplace_back(R"("name")", name());
  if (rng.NextBernoulli(0.1)) {
    user.members.emplace_back(R"("properties")", properties());
  }
  if (rng.NextBernoulli(0.1)) {
    user.members.emplace_back(R"("extra")", RandomExtra(rng));
  }
  // Shuffle the members: "name" may follow "properties".
  for (std::size_t i = user.members.size(); i > 1; --i) {
    std::swap(user.members[i - 1], user.members[rng.NextBounded(i)]);
  }
  return user;
}

/// A repository document. Half are `clean`: every name, score and kind
/// well-typed and in range, so most of them load (all but those holding a
/// depth bomb); the rest mix in the malformed cases.
TextDoc RandomRepositoryDoc(util::Rng& rng) {
  const bool clean = rng.NextBernoulli(0.5);
  TextDoc root;
  root.kind = '{';
  auto users = [&] {
    TextDoc array;
    array.kind = '[';
    const std::size_t count = rng.NextBounded(7);
    for (std::size_t u = 0; u < count; ++u) {
      array.elements.push_back(RandomUser(rng, u, clean));
    }
    return array;
  };
  auto kinds = [&] {
    if (!clean && rng.NextBernoulli(0.05)) {
      return Spelled(Pick(rng, kNonObjects));
    }
    TextDoc object;
    object.kind = '{';
    const std::size_t count = rng.NextBounded(5);
    for (std::size_t i = 0; i < count; ++i) {
      const bool bad = !clean && rng.NextBernoulli(0.1);
      object.members.emplace_back(
          Pick(rng, kLabels),
          Spelled(bad ? Pick(rng, kBadKinds) : Pick(rng, kKinds)));
    }
    return object;
  };
  if (!clean && rng.NextBernoulli(0.03)) return Spelled(Pick(rng, kNonObjects));
  if (clean || !rng.NextBernoulli(0.05)) {
    root.members.emplace_back(R"("users")", users());
  }
  if (rng.NextBernoulli(0.7)) root.members.emplace_back(R"("kinds")", kinds());
  if (rng.NextBernoulli(0.1)) {
    const bool replace_with_non_array = !clean && rng.NextBernoulli(0.3);
    root.members.emplace_back(R"("users")",
                              replace_with_non_array
                                  ? Spelled(Pick(rng, kNonObjects))
                                  : users());
  }
  if (rng.NextBernoulli(0.1)) root.members.emplace_back(R"("kinds")", kinds());
  if (rng.NextBernoulli(0.2)) {
    root.members.emplace_back(R"("meta")", RandomExtra(rng));
  }
  // "kinds" lands before or after "users".
  for (std::size_t i = root.members.size(); i > 1; --i) {
    std::swap(root.members[i - 1], root.members[rng.NextBounded(i)]);
  }
  return root;
}

/// What differs between two repositories, or "" when they are identical:
/// property ids, labels and kinds, user ids and names, and every entry's
/// property and score bits.
std::string RepositoryDifference(const ProfileRepository& a,
                                 const ProfileRepository& b) {
  const PropertyTable& pa = a.properties();
  const PropertyTable& pb = b.properties();
  if (pa.size() != pb.size()) {
    return util::StringPrintf("%zu vs %zu properties", pa.size(), pb.size());
  }
  for (PropertyId p = 0; p < pa.size(); ++p) {
    if (pa.Label(p) != pb.Label(p) || pa.Kind(p) != pb.Kind(p)) {
      const std::string kind_a(PropertyKindName(pa.Kind(p)));
      const std::string kind_b(PropertyKindName(pb.Kind(p)));
      return util::StringPrintf("property %u is '%s' (%s) vs '%s' (%s)", p,
                                pa.Label(p).c_str(), kind_a.c_str(),
                                pb.Label(p).c_str(), kind_b.c_str());
    }
  }
  if (a.user_count() != b.user_count()) {
    return util::StringPrintf("%zu vs %zu users", a.user_count(),
                              b.user_count());
  }
  for (UserId u = 0; u < a.user_count(); ++u) {
    const UserProfile& ua = a.user(u);
    const UserProfile& ub = b.user(u);
    if (ua.name() != ub.name() || a.FindUser(ua.name()) != u ||
        b.FindUser(ub.name()) != u) {
      return util::StringPrintf("user %u is '%s' vs '%s'", u,
                                ua.name().c_str(), ub.name().c_str());
    }
    bool same = ua.size() == ub.size();
    for (std::size_t i = 0; same && i < ua.size(); ++i) {
      same = ua.entries()[i].property == ub.entries()[i].property &&
             std::bit_cast<std::uint64_t>(ua.entries()[i].score) ==
                 std::bit_cast<std::uint64_t>(ub.entries()[i].score);
    }
    if (!same) return util::StringPrintf("user %u's entries differ", u);
  }
  return "";
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

std::string LoaderDivergence(const std::string& text) {
  Result<ProfileRepository> streamed = ParseRepositoryJson(text);
  Result<json::Value> tree = json::Parse(text);
  Result<ProfileRepository> reference =
      tree.ok() ? RepositoryFromJson(tree.value())
                : Result<ProfileRepository>(tree.status());
  if (streamed.ok() && reference.ok()) {
    return RepositoryDifference(streamed.value(), reference.value());
  }
  if (streamed.ok() != reference.ok() ||
      streamed.status().code() != reference.status().code() ||
      streamed.status().message() != reference.status().message()) {
    return "streamed '" +
           (streamed.ok() ? std::string("ok") : streamed.status().ToString()) +
           "' vs reference '" +
           (reference.ok() ? std::string("ok")
                           : reference.status().ToString()) +
           "'";
  }
  return "";
}

FuzzReport FuzzRepositoryJson(std::uint64_t seed, int iterations) {
  FuzzReport report;
  util::Rng rng(seed);
  for (int iter = 0; iter < iterations; ++iter) {
    ++report.iterations;
    const TextDoc doc = RandomRepositoryDoc(rng);
    for (const bool indent : {false, true}) {
      std::string text;
      Render(doc, indent, 0, text);
      const std::string mutated = Mutate(rng, text, 4);
      const std::string* inputs[] = {&text, &mutated};
      for (const std::string* input : inputs) {
        const std::string divergence = LoaderDivergence(*input);
        if (!divergence.empty()) {
          AddFailure(report, seed, iter,
                     std::string(indent ? "indented" : "compact") +
                         (input == &text ? "" : " mutated") + ": " +
                         divergence);
        }
      }
    }
  }
  return report;
}

}  // namespace podium::check
