#include "podium/serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "podium/serve/io_util.h"
#include "podium/util/string_util.h"

namespace podium::serve {

namespace {

char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (LowerAscii(a[i]) != LowerAscii(b[i])) return false;
  }
  return true;
}

const std::string* FindHeaderIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

struct ParsedHead {
  std::string first_line;
  std::vector<std::pair<std::string, std::string>> headers;
};

Result<ParsedHead> ParseHead(const std::string& block) {
  ParsedHead head;
  std::size_t pos = 0;
  bool first = true;
  while (pos < block.size()) {
    const std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::string_view line(block.data() + pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) break;
    if (first) {
      head.first_line = std::string(line);
      first = false;
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("malformed HTTP header line");
    }
    head.headers.emplace_back(
        std::string(util::StripWhitespace(line.substr(0, colon))),
        std::string(util::StripWhitespace(line.substr(colon + 1))));
  }
  if (first) return Status::ParseError("empty HTTP message head");
  return head;
}

// Strict Content-Length (request-smuggling hardening): the value must be
// pure ASCII digits — no sign, no embedded whitespace, no comma list —
// and duplicate headers must agree byte for byte; a conflicting duplicate
// is how smuggled payloads slip past intermediaries.
Result<std::size_t> ContentLength(
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const std::string* value = nullptr;
  for (const auto& [key, candidate] : headers) {
    if (!EqualsIgnoreCase(key, "Content-Length")) continue;
    if (value != nullptr && *value != candidate) {
      return Status::ParseError("conflicting Content-Length headers");
    }
    value = &candidate;
  }
  if (value == nullptr) return static_cast<std::size_t>(0);
  if (value->empty()) return Status::ParseError("empty Content-Length");
  std::size_t parsed = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') {
      return Status::ParseError("invalid Content-Length '" + *value + "'");
    }
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (parsed > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return Status::ParseError("Content-Length overflows");
    }
    parsed = parsed * 10 + digit;
  }
  return parsed;
}

/// Builds a request (sans body) out of a parsed head: request-line
/// validation plus the Transfer-Encoding rejection.
Result<HttpRequest> RequestFromHead(ParsedHead head) {
  HttpRequest request;
  const std::vector<std::string> parts = util::Split(head.first_line, ' ');
  if (parts.size() != 3) {
    return Status::ParseError("malformed HTTP request line");
  }
  request.method = parts[0];
  request.target = parts[1];
  request.version = parts[2];
  request.headers = std::move(head.headers);
  if (FindHeaderIn(request.headers, "Transfer-Encoding") != nullptr) {
    return Status::Unimplemented("chunked transfer encoding not supported");
  }
  return request;
}

/// True when any Connection header in `headers` carries `token` —
/// case-insensitively, with comma-list values split and trimmed.
bool HasConnectionToken(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view token) {
  for (const auto& [key, value] : headers) {
    if (!EqualsIgnoreCase(key, "Connection")) continue;
    std::size_t pos = 0;
    while (pos <= value.size()) {
      std::size_t comma = value.find(',', pos);
      if (comma == std::string::npos) comma = value.size();
      const std::string_view item = util::StripWhitespace(
          std::string_view(value).substr(pos, comma - pos));
      if (EqualsIgnoreCase(item, token)) return true;
      pos = comma + 1;
    }
  }
  return false;
}

}  // namespace

bool RequestsConnectionClose(const HttpRequest& request) {
  if (HasConnectionToken(request.headers, "close")) return true;
  if (EqualsIgnoreCase(request.version, "HTTP/1.0")) {
    // HTTP/1.0 defaults to close; an explicit keep-alive token opts out.
    return !HasConnectionToken(request.headers, "keep-alive");
  }
  return false;
}

Result<std::optional<HttpRequest>> TryParseHttpRequest(
    std::string& buffer, const HttpLimits& limits) {
  const std::size_t terminator = buffer.find("\r\n\r\n");
  if (terminator == std::string::npos) {
    if (buffer.size() > limits.max_header_bytes) {
      return Status::ParseError("HTTP header block exceeds limit");
    }
    return std::optional<HttpRequest>();
  }
  const std::size_t head_bytes = terminator + 4;
  Result<ParsedHead> head = ParseHead(buffer.substr(0, head_bytes));
  if (!head.ok()) return head.status();
  Result<HttpRequest> request = RequestFromHead(std::move(head).value());
  if (!request.ok()) return request.status();
  Result<std::size_t> length = ContentLength(request->headers);
  if (!length.ok()) return length.status();
  if (length.value() > limits.max_body_bytes) {
    return Status::ParseError("HTTP body exceeds limit");
  }
  if (buffer.size() < head_bytes + length.value()) {
    return std::optional<HttpRequest>();
  }
  request->body = buffer.substr(head_bytes, length.value());
  buffer.erase(0, head_bytes + length.value());
  return std::optional<HttpRequest>(std::move(request).value());
}

Result<std::string> BufferedReader::ReadHeaderBlock(std::size_t max_bytes) {
  for (;;) {
    const std::size_t terminator = buffer_.find("\r\n\r\n");
    if (terminator != std::string::npos) {
      std::string block = buffer_.substr(0, terminator + 4);
      buffer_.erase(0, terminator + 4);
      return block;
    }
    if (buffer_.size() > max_bytes) {
      return Status::ParseError("HTTP header block exceeds limit");
    }
    PODIUM_RETURN_IF_ERROR(Fill(buffer_.empty()));
  }
}

Result<std::string> BufferedReader::ReadBody(std::size_t length,
                                             std::size_t max_bytes) {
  if (length > max_bytes) {
    return Status::ParseError("HTTP body exceeds limit");
  }
  while (buffer_.size() < length) {
    PODIUM_RETURN_IF_ERROR(Fill(/*eof_is_not_found=*/false));
  }
  std::string body = buffer_.substr(0, length);
  buffer_.erase(0, length);
  return body;
}

Status BufferedReader::Fill(bool eof_is_not_found) {
  char chunk[8192];
  const ssize_t n = io::RetryRecv(fd_, chunk, sizeof(chunk));
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return Status::Ok();
  }
  if (n == 0) {
    if (eof_is_not_found) return Status::NotFound("connection closed");
    return Status::IoError("connection closed mid-message");
  }
  return Status::IoError(std::string("recv: ") + std::strerror(errno));
}

std::string_view TargetPath(std::string_view target) {
  const std::size_t question = target.find('?');
  return question == std::string_view::npos ? target
                                            : target.substr(0, question);
}

std::string_view TargetQuery(std::string_view target) {
  const std::size_t question = target.find('?');
  return question == std::string_view::npos ? std::string_view()
                                            : target.substr(question + 1);
}

std::optional<std::string_view> QueryParam(std::string_view query,
                                           std::string_view key) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return eq == std::string_view::npos ? std::string_view()
                                          : pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindHeaderIn(headers, name);
}

const std::string* HttpResponse::FindHeader(std::string_view name) const {
  return FindHeaderIn(headers, name);
}

Result<HttpResponse> ReadHttpResponse(BufferedReader& reader,
                                      const HttpLimits& limits) {
  Result<std::string> block = reader.ReadHeaderBlock(limits.max_header_bytes);
  if (!block.ok()) return block.status();
  Result<ParsedHead> head = ParseHead(block.value());
  if (!head.ok()) return head.status();

  HttpResponse response;
  // "HTTP/1.1 200 OK" — the status code must be exactly three digits
  // terminated by end-of-line or a space; atoi-style salvage of prefixes
  // like "20x" or "2000" silently fabricated codes here before.
  const std::size_t space = head->first_line.find(' ');
  if (space == std::string::npos ||
      head->first_line.compare(0, 5, "HTTP/") != 0) {
    return Status::ParseError("malformed HTTP status line");
  }
  const std::string rest = head->first_line.substr(space + 1);
  if (rest.size() < 3 || (rest.size() > 3 && rest[3] != ' ')) {
    return Status::ParseError("malformed HTTP status code");
  }
  int code = 0;
  for (int i = 0; i < 3; ++i) {
    if (rest[i] < '0' || rest[i] > '9') {
      return Status::ParseError("malformed HTTP status code");
    }
    code = code * 10 + (rest[i] - '0');
  }
  if (code < 100 || code > 599) {
    return Status::ParseError("HTTP status code out of range");
  }
  response.status = code;
  response.reason = rest.size() > 4 ? rest.substr(4) : "";
  response.headers = std::move(head->headers);
  Result<std::size_t> length = ContentLength(response.headers);
  if (!length.ok()) return length.status();
  if (length.value() > 0) {
    Result<std::string> body =
        reader.ReadBody(length.value(), limits.max_body_bytes);
    if (!body.ok()) return body.status();
    response.body = std::move(body).value();
  }
  return response;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = util::StringPrintf("HTTP/1.1 %d %s\r\n", response.status,
                                       response.reason.c_str());
  bool have_length = false;
  bool have_connection = false;
  for (const auto& [key, value] : response.headers) {
    if (EqualsIgnoreCase(key, "Content-Length")) have_length = true;
    if (EqualsIgnoreCase(key, "Connection")) have_connection = true;
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!have_length) {
    out += util::StringPrintf("Content-Length: %zu\r\n", response.body.size());
  }
  if (!have_connection) out += "Connection: keep-alive\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string SerializeRequest(const HttpRequest& request) {
  std::string out =
      request.method + " " + request.target + " " + request.version + "\r\n";
  bool have_length = false;
  for (const auto& [key, value] : request.headers) {
    if (EqualsIgnoreCase(key, "Content-Length")) have_length = true;
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!have_length && (!request.body.empty() || request.method == "POST")) {
    out += util::StringPrintf("Content-Length: %zu\r\n", request.body.size());
  }
  out += "\r\n";
  out += request.body;
  return out;
}

Status WriteAll(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        io::RetrySend(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

HttpClient::~HttpClient() { Close(); }

Status HttpClient::Connect(const std::string& host, int port) {
  Close();
  io::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &address.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host address '" + host +
                                   "' (IPv4 dotted quad or localhost)");
  }
  // The sockaddr cast is the POSIX socket-API calling convention.
  // podium-lint: allow(intrinsics-scope)
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Status::IoError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd.Release();
  reader_ = std::make_unique<BufferedReader>(fd_);
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    reader_.reset();
  }
}

Result<HttpResponse> HttpClient::RoundTrip(const HttpRequest& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  PODIUM_RETURN_IF_ERROR(WriteAll(fd_, SerializeRequest(request)));
  return ReadHttpResponse(*reader_, limits_);
}

}  // namespace podium::serve
