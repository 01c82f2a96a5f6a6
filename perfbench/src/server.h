#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One reply as the benchmark sees it: status, body, and the per-request
/// X-Podium-* headers the server reports.
struct HttpReply {
  int status = 0;
  std::string body;
  double queue_ms = 0.0;  // X-Podium-Queue-Ms (absent on cache hits: 0)
  double run_ms = 0.0;    // X-Podium-Run-Ms
  bool cache_hit = false;  // X-Podium-Cache: hit
  bool coalesced = false;  // X-Podium-Coalesced: 1
};

/// A blocking HTTP/1.1 keep-alive client over one TCP connection to
/// 127.0.0.1. The benchmark carries its own client so that a change to
/// the server's HTTP code cannot also change the cost of the client.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(int port, std::string* error);

  /// Sends one request and reads its reply. On a transport error the
  /// connection is closed and false is returned; Connect again to go on.
  bool RoundTrip(std::string_view method, std::string_view target,
                 std::string_view body, HttpReply* reply, std::string* error);

 private:
  void Close();
  bool ReadReply(HttpReply* reply, std::string* error);

  int fd_ = -1;
  std::string request_;  // reused per request
  std::string buffer_;   // received bytes not yet consumed
};

/// A podium_serve child process. Stop() (or the destructor) ends it and
/// waits for it; the child is also killed if the benchmark dies first.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Execs `binary args...` and waits until GET /healthz answers 200.
  /// *setup_seconds is the time from exec to that reply.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             double timeout_seconds, double* setup_seconds,
             std::string* error);

  int port() const { return port_; }

  /// The server's VmHWM (peak resident set) in MiB.
  bool PeakRssMib(double* mib, std::string* error) const;

  /// GET /metrics counters, by name.
  bool Counters(std::map<std::string, double>* counters,
                std::string* error) const;

  void Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
