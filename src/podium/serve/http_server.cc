#include "podium/serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "podium/obs/log.h"
#include "podium/obs/trace.h"
#include "podium/serve/io_util.h"
#include "podium/util/string_util.h"

namespace podium::serve {

namespace {

/// Compact span rendering for sampled access-log lines:
/// "select:3.21ms,select/run:3.08ms,...,greedy.rounds{rounds=16 ...}:2.9ms"
/// (child names prefixed by parent, attributes in braces).
std::string RenderSpansCompact(const std::vector<obs::TraceSpan>& spans) {
  std::string out;
  std::vector<std::string> qualified(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceSpan& span = spans[i];
    qualified[i] =
        span.parent >= 0 &&
                static_cast<std::size_t>(span.parent) < qualified.size()
            ? qualified[static_cast<std::size_t>(span.parent)] + "/" +
                  span.name
            : span.name;
    if (!out.empty()) out += ",";
    out += qualified[i];
    for (std::size_t a = 0; a < span.attributes.size(); ++a) {
      out += util::StringPrintf("%c%s=%.17g", a == 0 ? '{' : ' ',
                                span.attributes[a].key.c_str(),
                                span.attributes[a].value);
    }
    if (!span.attributes.empty()) out += "}";
    out += util::StringPrintf(":%.3fms", span.duration_seconds * 1e3);
  }
  return out;
}

double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  // ScopedFd owns the socket across the error returns below; only the
  // success path hands it to listen_fd_.
  io::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse bind address '" +
                                   options_.bind_address + "'");
  }
  // The sockaddr cast is the POSIX socket-API calling convention.
  // podium-lint: allow(intrinsics-scope)
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd.get(), 128) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t length = sizeof(address);
  // podium-lint: allow(intrinsics-scope)
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(address.sin_port);
  listen_fd_ = fd.Release();

  EventLoopOptions loop_options;
  loop_options.worker_threads = options_.worker_threads;
  loop_options.limits = options_.limits;
  loop_options.accept_backoff_ms = options_.accept_backoff_ms;
  loop_options.accept_fn = options_.accept_fn;
  loop_ = std::make_unique<EventLoop>(
      listen_fd_, loop_options,
      [this](const HttpRequest& request, double queue_seconds) {
        return DispatchTraced(request, queue_seconds);
      });
  if (Status started = loop_->Start(); !started.ok()) {
    loop_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return started;
  }
  {
    util::MutexLock lock(mutex_);
    state_ = State::kRunning;
  }
  return Status::Ok();
}

void HttpServer::Stop() {
  {
    util::MutexLock lock(mutex_);
    switch (state_) {
      case State::kIdle:
      case State::kStopped:
        return;
      case State::kStopping:
        // Another thread is mid-shutdown: wait until it finishes rather
        // than racing it into the joins.
        while (state_ != State::kStopped) stopped_.Wait(lock);
        return;
      case State::kRunning:
        state_ = State::kStopping;
        break;
    }
  }
  loop_->Stop();
  loop_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    util::MutexLock lock(mutex_);
    state_ = State::kStopped;
  }
  stopped_.NotifyAll();
}

void HttpServer::Wait() {
  util::MutexLock lock(mutex_);
  while (state_ == State::kRunning || state_ == State::kStopping) {
    stopped_.Wait(lock);
  }
}

HttpResponse HttpServer::DispatchTraced(const HttpRequest& request,
                                        double queue_seconds) {
  // Adopt a well-formed client trace id (so a caller can stitch our spans
  // into its own trace); mint one otherwise.
  obs::TraceId trace_id;
  if (const std::string* header = request.FindHeader("X-Podium-Trace-Id");
      header != nullptr) {
    trace_id = obs::TraceId::FromHex(*header).value_or(obs::TraceId{});
  }
  if (trace_id.IsZero()) trace_id = obs::TraceId::Generate();

  const double start_unix = UnixSecondsNow();
  obs::TraceContext trace(trace_id);
  HttpResponse response;
  {
    obs::TraceScope scope(&trace);
    // The wait for a worker happened before this trace existed; project it
    // as a span at offset 0 so trace views show queueing next to handling.
    if (queue_seconds > 0.0) obs::RecordSpan("http.queue", 0.0, queue_seconds);
    response = handler_(request);
  }
  const double total_seconds = trace.ElapsedSeconds();
  const std::string trace_hex = trace_id.ToHex();
  response.headers.emplace_back("X-Podium-Trace-Id", trace_hex);

  obs::FinishedTrace finished;
  finished.trace_id = trace_hex;
  finished.method = request.method;
  finished.path = std::string(TargetPath(request.target));
  finished.http_status = response.status;
  finished.start_unix_seconds = start_unix;
  finished.total_seconds = total_seconds;
  finished.spans = trace.spans();

  const std::uint64_t n =
      request_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sample_spans =
      options_.trace_log_every > 0 && n % options_.trace_log_every == 0;
  {
    obs::LogEntry line = obs::LogInfo("request");
    line.Str("method", finished.method)
        .Str("path", finished.path)
        .Num("status", finished.http_status)
        .Num("duration_ms", total_seconds * 1e3)
        .Num("queue_ms", queue_seconds * 1e3)
        .Num("bytes", static_cast<double>(response.body.size()))
        .TraceId(trace_hex);
    if (sample_spans && !finished.spans.empty()) {
      line.Str("spans", RenderSpansCompact(finished.spans));
    }
  }
  obs::TraceRing::Global().Record(std::move(finished));
  return response;
}

}  // namespace podium::serve
