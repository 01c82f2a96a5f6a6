// Hardening tests for the HTTP/1.1 parsers, driven through the paths
// production uses: requests through the event loop's incremental parser
// (check::ParseRequestBytes), responses through the client's blocking
// reader over a socketpair (check::ParseResponseBytes).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "podium/check/fuzz.h"
#include "podium/serve/http.h"
#include "podium/util/status.h"

namespace podium::serve {
namespace {

using check::ParseRequestBytes;
using check::ParseResponseBytes;

bool IsParseError(const Status& status) {
  return status.code() == StatusCode::kParseError;
}

std::string Request(const std::string& content_length_headers,
                    const std::string& body) {
  return "POST /v1/select HTTP/1.1\r\n" + content_length_headers + "\r\n" +
         body;
}

TEST(HttpRequestParseTest, RoundTripsSerializedRequest) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.headers.emplace_back("X-Trace", "abc");
  request.body = "{\"budget\":2}";
  const Result<HttpRequest> parsed =
      ParseRequestBytes(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/v1/select");
  EXPECT_EQ(parsed->body, request.body);
}

TEST(HttpRequestParseTest, AcceptsExactDigitContentLength) {
  const Result<HttpRequest> parsed =
      ParseRequestBytes(Request("Content-Length: 5\r\n", "hello"));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->body, "hello");
}

TEST(HttpRequestParseTest, AcceptsAgreeingDuplicateContentLength) {
  const Result<HttpRequest> parsed = ParseRequestBytes(
      Request("Content-Length: 5\r\nContent-Length: 5\r\n", "hello"));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->body, "hello");
}

TEST(HttpRequestParseTest, RejectsConflictingDuplicateContentLength) {
  const Result<HttpRequest> parsed = ParseRequestBytes(
      Request("Content-Length: 5\r\nContent-Length: 6\r\n", "helloX"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
}

TEST(HttpRequestParseTest, RejectsSmugglingShapedContentLength) {
  const char* kBad[] = {"+5", "-5",  "5 5", "5\t5",
                        "5,5", "0x10", "5.0", "99999999999999999999999999"};
  for (const char* bad : kBad) {
    const Result<HttpRequest> parsed = ParseRequestBytes(
        Request("Content-Length: " + std::string(bad) + "\r\n", "hello"));
    ASSERT_FALSE(parsed.ok()) << "accepted Content-Length '" << bad << "'";
    EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
  }
}

TEST(HttpRequestParseTest, RejectsEmptyContentLength) {
  const Result<HttpRequest> parsed =
      ParseRequestBytes(Request("Content-Length:\r\n", ""));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
}

TEST(HttpResponseParseTest, ParsesWellFormedStatusLine) {
  const Result<HttpResponse> parsed = ParseResponseBytes(
      "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->reason, "Not Found");
}

TEST(HttpResponseParseTest, AcceptsStatusWithoutReason) {
  const Result<HttpResponse> parsed =
      ParseResponseBytes("HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 204);
  EXPECT_EQ(parsed->reason, "");
}

TEST(HttpResponseParseTest, RejectsMalformedStatusCodes) {
  // atoi used to salvage a number out of each of these.
  const char* kBad[] = {
      "HTTP/1.1 20 OK\r\n\r\n",        // two digits
      "HTTP/1.1 2000 OK\r\n\r\n",      // four digits
      "HTTP/1.1 20x OK\r\n\r\n",       // trailing junk in the code
      "HTTP/1.1 -99 OK\r\n\r\n",       // sign
      "HTTP/1.1 099 OK\r\n\r\n",       // below 100
      "HTTP/1.1 600 OK\r\n\r\n",       // above 599
      "HTTP/1.1  200 OK\r\n\r\n",      // empty code field
      "FTP/1.1 200 OK\r\n\r\n",        // not an HTTP status line
      "HTTP/1.1\r\n\r\n",              // no code at all
  };
  for (const char* bad : kBad) {
    const Result<HttpResponse> parsed = ParseResponseBytes(bad);
    ASSERT_FALSE(parsed.ok()) << "accepted status line: " << bad;
    EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
  }
}

TEST(HttpResponseParseTest, RoundTripsSerializedResponse) {
  HttpResponse response;
  response.status = 503;
  response.reason = "Service Unavailable";
  response.body = "{\"error\":\"overloaded\"}";
  const Result<HttpResponse> parsed =
      ParseResponseBytes(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 503);
  EXPECT_EQ(parsed->reason, "Service Unavailable");
  EXPECT_EQ(parsed->body, response.body);
}

HttpRequest RequestWithConnection(const std::string& version,
                                  const std::vector<std::string>& values) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  request.version = version;
  for (const std::string& value : values) {
    request.headers.emplace_back("Connection", value);
  }
  return request;
}

TEST(RequestsConnectionCloseTest, MatchesCloseTokenCaseInsensitively) {
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"close"})));
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"Close"})));
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"CLOSE"})));
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"cLoSe"})));
}

TEST(RequestsConnectionCloseTest, FindsCloseInCommaList) {
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"keep-alive, close"})));
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"keep-alive,Close"})));
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {" close , te"})));
  // Multiple Connection headers are one combined list (RFC 9110 §5.3).
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"te", "close"})));
}

TEST(RequestsConnectionCloseTest, DoesNotMatchSubstringsOrOtherTokens) {
  EXPECT_FALSE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"keep-alive"})));
  // "closed" contains "close" but is a different token.
  EXPECT_FALSE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.1", {"closed"})));
  EXPECT_FALSE(
      RequestsConnectionClose(RequestWithConnection("HTTP/1.1", {})));
}

TEST(RequestsConnectionCloseTest, Http10DefaultsToCloseWithoutKeepAlive) {
  EXPECT_TRUE(
      RequestsConnectionClose(RequestWithConnection("HTTP/1.0", {})));
  EXPECT_FALSE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.0", {"keep-alive"})));
  EXPECT_FALSE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.0", {"Keep-Alive"})));
  // An explicit close wins even alongside keep-alive.
  EXPECT_TRUE(RequestsConnectionClose(
      RequestWithConnection("HTTP/1.0", {"keep-alive, close"})));
}

TEST(TryParseHttpRequestTest, ParsesOnlyOnceComplete) {
  const std::string wire =
      "POST /v1/select HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpLimits limits;
  // Feed the request one byte at a time: every prefix must come back
  // incomplete (nullopt) without consuming anything, and the final byte
  // must complete it.
  std::string buffer;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    const std::size_t before = buffer.size();
    Result<std::optional<HttpRequest>> partial =
        TryParseHttpRequest(buffer, limits);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_FALSE(partial->has_value()) << "completed at byte " << i;
    EXPECT_EQ(buffer.size(), before);
  }
  buffer.push_back(wire.back());
  Result<std::optional<HttpRequest>> complete =
      TryParseHttpRequest(buffer, limits);
  ASSERT_TRUE(complete.ok()) << complete.status();
  ASSERT_TRUE(complete->has_value());
  EXPECT_EQ((*complete)->method, "POST");
  EXPECT_EQ((*complete)->body, "hello");
  EXPECT_TRUE(buffer.empty());
}

TEST(TryParseHttpRequestTest, LeavesPipelinedSuccessorInBuffer) {
  std::string buffer =
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /v1/select HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  HttpLimits limits;
  Result<std::optional<HttpRequest>> first =
      TryParseHttpRequest(buffer, limits);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->method, "GET");

  Result<std::optional<HttpRequest>> second =
      TryParseHttpRequest(buffer, limits);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->method, "POST");
  EXPECT_EQ((*second)->body, "{}");
  EXPECT_TRUE(buffer.empty());
}

TEST(TryParseHttpRequestTest, RejectsOversizedHeadBeforeTerminatorArrives) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  // A slow-loris head: no terminator yet, already over the limit. The
  // parser must flag it now rather than buffering forever.
  std::string buffer = "GET /x HTTP/1.1\r\nX-Pad: " +
                       std::string(limits.max_header_bytes, 'a');
  Result<std::optional<HttpRequest>> parsed =
      TryParseHttpRequest(buffer, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
}

TEST(TryParseHttpRequestTest, RejectsOversizedBodyDeclaration) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  std::string buffer =
      "POST /v1/select HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
  Result<std::optional<HttpRequest>> parsed =
      TryParseHttpRequest(buffer, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
}

TEST(TryParseHttpRequestTest, RejectsMalformedRequestLine) {
  HttpLimits limits;
  std::string buffer = "NONSENSE\r\n\r\n";
  Result<std::optional<HttpRequest>> parsed =
      TryParseHttpRequest(buffer, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(IsParseError(parsed.status())) << parsed.status();
}

}  // namespace
}  // namespace podium::serve
