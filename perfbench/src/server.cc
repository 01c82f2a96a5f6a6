#include "server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lower = [](char c) {
      return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Reads one JSON string starting at text[*pos] == '"'; unescapes the
/// escapes /metrics uses (\" and \\).
bool ReadJsonString(const std::string& text, std::size_t* pos,
                    std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  out->clear();
  for (std::size_t i = *pos + 1; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      out->push_back(text[++i]);
    } else if (text[i] == '"') {
      *pos = i + 1;
      return true;
    } else {
      out->push_back(text[i]);
    }
  }
  return false;
}

void SkipSpace(const std::string& text, std::size_t* pos) {
  while (*pos < text.size() &&
         (text[*pos] == ' ' || text[*pos] == '\n' || text[*pos] == '\r' ||
          text[*pos] == '\t')) {
    ++*pos;
  }
}

}  // namespace

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect(int port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc = 0;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool HttpConnection::RoundTrip(std::string_view method,
                               std::string_view target, std::string_view body,
                               HttpReply* reply, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  request_.clear();
  request_.append(method).append(" ").append(target);
  request_.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty()) {
    request_.append("Content-Type: application/json\r\nContent-Length: ");
    request_.append(std::to_string(body.size())).append("\r\n");
  }
  request_.append("\r\n").append(body);
  std::size_t sent = 0;
  while (sent < request_.size()) {
    const ssize_t n = ::send(fd_, request_.data() + sent,
                             request_.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  if (!ReadReply(reply, error)) {
    Close();
    return false;
  }
  return true;
}

bool HttpConnection::ReadReply(HttpReply* reply, std::string* error) {
  char chunk[64 * 1024];
  const auto fill = [&]() {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = n == 0 ? std::string("connection closed by server")
                        : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  };
  std::size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }

  *reply = HttpReply{};
  std::size_t content_length = 0;
  const std::string_view head(buffer_.data(), head_end);
  std::size_t line_start = 0;
  bool status_line = true;
  while (line_start <= head.size()) {
    std::size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    const std::string_view line = head.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    if (status_line) {
      status_line = false;
      const std::size_t space = line.find(' ');
      if (space == std::string_view::npos) {
        *error = "malformed status line";
        return false;
      }
      reply->status = std::atoi(std::string(line.substr(space + 1, 3)).c_str());
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = line.substr(0, colon);
    const std::string value(Trim(line.substr(colon + 1)));
    if (EqualsIgnoreCase(name, "Content-Length")) {
      content_length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (EqualsIgnoreCase(name, "X-Podium-Queue-Ms")) {
      reply->queue_ms = std::strtod(value.c_str(), nullptr);
    } else if (EqualsIgnoreCase(name, "X-Podium-Run-Ms")) {
      reply->run_ms = std::strtod(value.c_str(), nullptr);
    } else if (EqualsIgnoreCase(name, "X-Podium-Cache")) {
      reply->cache_hit = value == "hit";
    } else if (EqualsIgnoreCase(name, "X-Podium-Coalesced")) {
      reply->coalesced = value == "1";
    }
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) {
    if (!fill()) return false;
  }
  reply->body.assign(buffer_, body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return true;
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          double timeout_seconds, double* setup_seconds,
                          std::string* error) {
  Stop();
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const Clock::time_point start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies
    // with the benchmark, and its per-request access log is discarded.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // The server prints its port once the snapshot is built and it listens.
  std::string output;
  const std::string marker = "listening on http://127.0.0.1:";
  while (port_ == 0) {
    const double left = timeout_seconds - SecondsSince(start);
    if (left <= 0) {
      *error = "server did not start listening within the timeout";
      Stop();
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      *error = "server exited before listening (status " +
               std::to_string(status) + "); output: " + output;
      Stop();
      return false;
    }
    output.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = output.find(marker);
    if (at != std::string::npos) {
      const std::size_t digits = at + marker.size();
      const std::size_t end = output.find_first_not_of("0123456789", digits);
      if (end != std::string::npos) {
        port_ = std::atoi(output.substr(digits, end - digits).c_str());
      }
    }
  }

  HttpConnection connection;
  HttpReply reply;
  while (SecondsSince(start) < timeout_seconds) {
    std::string ignored;
    if (connection.Connect(port_, &ignored) &&
        connection.RoundTrip("GET", "/healthz", "", &reply, &ignored) &&
        reply.status == 200) {
      *setup_seconds = SecondsSince(start);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "server never answered /healthz with 200";
  Stop();
  return false;
}

bool ServerProcess::PeakRssMib(double* mib, std::string* error) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      *mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      return true;
    }
  }
  *error = "no VmHWM in /proc/<server>/status";
  return false;
}

bool ServerProcess::Counters(std::map<std::string, double>* counters,
                             std::string* error) const {
  HttpConnection connection;
  HttpReply reply;
  if (!connection.Connect(port_, error) ||
      !connection.RoundTrip("GET", "/metrics", "", &reply, error)) {
    return false;
  }
  if (reply.status != 200) {
    *error = "/metrics answered " + std::to_string(reply.status);
    return false;
  }
  const std::string& text = reply.body;
  std::size_t pos = text.find("\"counters\"");
  if (pos == std::string::npos) {
    *error = "/metrics has no counters object";
    return false;
  }
  pos = text.find('{', pos);
  if (pos == std::string::npos) {
    *error = "/metrics counters are not an object";
    return false;
  }
  ++pos;
  counters->clear();
  std::string name;
  for (;;) {
    SkipSpace(text, &pos);
    if (pos < text.size() && text[pos] == '}') return true;
    if (!ReadJsonString(text, &pos, &name)) break;
    SkipSpace(text, &pos);
    if (pos >= text.size() || text[pos] != ':') break;
    ++pos;
    SkipSpace(text, &pos);
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) break;
    (*counters)[name] = value;
    pos = static_cast<std::size_t>(end - text.c_str());
    SkipSpace(text, &pos);
    if (pos < text.size() && text[pos] == ',') ++pos;
  }
  *error = "cannot parse the /metrics counters object";
  return false;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           SecondsSince(start) < 20.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  port_ = 0;
}

}  // namespace perfbench
