#ifndef PODIUM_SERVE_HTTP_H_
#define PODIUM_SERVE_HTTP_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "podium/util/result.h"

namespace podium::serve {

/// Minimal dependency-free HTTP/1.1 message types over POSIX sockets:
/// just enough for the selection service (and its load generator/tests) —
/// request line + headers + Content-Length bodies, keep-alive. No chunked
/// transfer, no TLS; front this with a real proxy in production.

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // "/v1/select"
  std::string version = "HTTP/1.1";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;

  bool operator==(const HttpRequest&) const = default;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(std::string_view name) const;
};

/// The path component of a request target: everything before the first
/// '?' ("/metrics?format=prometheus" -> "/metrics"). Fragments are not
/// special-cased; HTTP clients do not send them.
std::string_view TargetPath(std::string_view target);

/// The query component (after the first '?'), or "" when absent.
std::string_view TargetQuery(std::string_view target);

/// The raw value of `key` in an application/x-www-form-urlencoded-shaped
/// query ("a=1&b=2"), or nullopt when the key is absent. No percent
/// decoding — the serve endpoints only take token-valued parameters
/// ("format=prometheus", "limit=50").
std::optional<std::string_view> QueryParam(std::string_view query,
                                           std::string_view key);

/// Size limits for reading untrusted messages from a socket.
struct HttpLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 4 * 1024 * 1024;
};

/// True when the request asks the server to close the connection after
/// the response (RFC 9112 §9.3/§9.6): any Connection header carries a
/// "close" token — tokens are case-insensitive and values may be comma
/// lists ("keep-alive, Close") — or the request is HTTP/1.0, whose
/// default is close unless an explicit "keep-alive" token is present.
bool RequestsConnectionClose(const HttpRequest& request);

/// Incremental request framing for a nonblocking reader (the server's
/// only request parser): attempts to parse exactly one complete request
/// from the front of `buffer`.
///
///   - complete request  -> the request; its bytes are erased from
///                          `buffer` (pipelined successors stay put)
///   - not enough bytes  -> nullopt; `buffer` is untouched (call again
///                          after more bytes arrive)
///   - malformed/too big -> ParseError (oversized heads are detected as
///                          soon as `max_header_bytes` is exceeded, so a
///                          trickling client cannot grow the buffer
///                          unboundedly)
[[nodiscard]] Result<std::optional<HttpRequest>> TryParseHttpRequest(
    std::string& buffer, const HttpLimits& limits);

/// Buffered blocking reader over a socket for the client side; one per
/// connection, persisting across keep-alive messages so pipelined bytes
/// are never dropped.
class BufferedReader {
 public:
  explicit BufferedReader(int fd) : fd_(fd) {}

  /// Reads until "\r\n\r\n"; returns the head block including the blank
  /// line. NotFound on clean EOF at a message boundary.
  [[nodiscard]] Result<std::string> ReadHeaderBlock(std::size_t max_bytes);
  [[nodiscard]] Result<std::string> ReadBody(std::size_t length, std::size_t max_bytes);

 private:
  [[nodiscard]] Status Fill(bool eof_is_not_found);

  int fd_;
  std::string buffer_;
};

/// Reads one response (blocking). A clean EOF before any bytes yields
/// NotFound("connection closed"); malformed or oversized messages yield
/// ParseError.
[[nodiscard]] Result<HttpResponse> ReadHttpResponse(BufferedReader& reader,
                                      const HttpLimits& limits);

/// Serializes a response/request, adding Content-Length (and a default
/// Connection: keep-alive) if not already present.
std::string SerializeResponse(const HttpResponse& response);
std::string SerializeRequest(const HttpRequest& request);

/// Writes the full buffer to `fd`, retrying short writes; SIGPIPE is
/// suppressed (a peer hangup surfaces as IoError).
[[nodiscard]] Status WriteAll(int fd, std::string_view data);

/// Blocking keep-alive HTTP client for the load generator and tests.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  [[nodiscard]] Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends `request` and reads the response on the persistent connection.
  [[nodiscard]] Result<HttpResponse> RoundTrip(const HttpRequest& request);

 private:
  int fd_ = -1;
  HttpLimits limits_;
  std::unique_ptr<BufferedReader> reader_;
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_HTTP_H_
