#include "podium/serve/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "podium/obs/log.h"
#include "podium/obs/metrics.h"
#include "podium/serve/io_util.h"

namespace podium::serve {

namespace {

constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool IsResourceExhaustion(int error) {
  return error == EMFILE || error == ENFILE || error == ENOBUFS ||
         error == ENOMEM;
}

/// The best-effort 400 sent before hanging up on a malformed request;
/// mirrors what the blocking server used to send.
std::string BadRequestBytes(const Status& status) {
  HttpResponse bad;
  bad.status = 400;
  bad.reason = "Bad Request";
  bad.body = status.ToString() + "\n";
  bad.headers.emplace_back("Content-Type", "text/plain");
  bad.headers.emplace_back("Connection", "close");
  return SerializeResponse(bad);
}

}  // namespace

EventLoop::EventLoop(int listen_fd, EventLoopOptions options,
                     Dispatch dispatch)
    : listen_fd_(listen_fd), options_(std::move(options)),
      dispatch_(std::move(dispatch)) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const Status error(StatusCode::kIoError,
                       std::string("eventfd: ") + std::strerror(errno));
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return error;
  }
  SetNonBlocking(listen_fd_);

  epoll_event listen_event{};
  listen_event.events = EPOLLIN;
  listen_event.data.u64 = kListenId;
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) != 0) {
    const Status error(StatusCode::kIoError,
                       std::string("epoll_ctl: ") + std::strerror(errno));
    ::close(wake_fd_);
    ::close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return error;
  }

  stopping_.store(false, std::memory_order_relaxed);
  loop_ = std::thread([this] { LoopThread(); });
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  return Status::Ok();
}

void EventLoop::Stop() {
  {
    util::MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  // Best effort: the loop also re-checks stopping_ on every event.
  if (wake_fd_ >= 0) io::SignalEventFd(wake_fd_);
  task_ready_.NotifyAll();
  if (loop_.joinable()) loop_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void EventLoop::LoopThread() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (accept_paused_) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(accept_resume_at_ -
                                     std::chrono::steady_clock::now());
      // +1 rounds the truncated duration up so the timer cannot spin on a
      // sub-millisecond remainder.
      timeout_ms = remaining.count() > 0
                       ? static_cast<int>(remaining.count()) + 1
                       : 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::LogError("epoll_wait failed; event loop exiting")
          .Str("error", std::strerror(errno));
      break;
    }
    if (accept_paused_ &&
        std::chrono::steady_clock::now() >= accept_resume_at_) {
      ResumeAccepting();
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptReady();
      } else if (id == kWakeId) {
        io::DrainEventFd(wake_fd_);
      } else {
        HandleConnectionEvent(id, events[i].events);
      }
    }
    DrainCompletions();
  }
  for (auto& [id, connection] : connections_) ::close(connection.fd);
  connections_.clear();
}

void EventLoop::WorkerThread() {
  for (;;) {
    Task task;
    {
      util::MutexLock lock(task_mutex_);
      while (!stopping_.load(std::memory_order_acquire) && tasks_.empty()) {
        task_ready_.Wait(lock);
      }
      if (stopping_.load(std::memory_order_acquire)) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    const double queue_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task.enqueued_at)
            .count();
    HttpResponse response = dispatch_(task.request, queue_seconds);
    if (task.close_requested) {
      response.headers.emplace_back("Connection", "close");
    }
    Completion completion;
    completion.conn_id = task.conn_id;
    completion.bytes = SerializeResponse(response);
    completion.close_after_write = task.close_requested;
    {
      util::MutexLock lock(completion_mutex_);
      completions_.push_back(std::move(completion));
    }
    io::SignalEventFd(wake_fd_);
  }
}

void EventLoop::AcceptReady() {
  for (;;) {
    const int fd = options_.accept_fn ? options_.accept_fn(listen_fd_)
                                      : io::RetryAccept4(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (stopping_.load(std::memory_order_acquire)) return;
      // Resource exhaustion (fd table full under load) or anything else
      // unexpected: count it, back off, retry — never silently stop
      // accepting while /healthz stays green.
      obs::MetricsRegistry::Global()
          .counter("serve.http.accept_failures")
          .Add();
      obs::LogWarn("accept failed; pausing accepts")
          .Str("error", std::strerror(errno))
          .Num("backoff_ms", options_.accept_backoff_ms)
          .Str("kind", IsResourceExhaustion(errno) ? "fd-exhaustion"
                                                   : "other");
      PauseAccepting();
      return;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    obs::MetricsRegistry::Global().counter("serve.http.connections").Add();
    const std::uint64_t id = next_conn_id_++;
    Connection& connection = connections_[id];
    connection.fd = fd;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      connections_.erase(id);
    }
  }
}

void EventLoop::PauseAccepting() {
  epoll_event event{};
  event.events = 0;
  event.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &event);
  accept_paused_ = true;
  accept_resume_at_ =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.accept_backoff_ms);
}

void EventLoop::ResumeAccepting() {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &event);
  accept_paused_ = false;
  // The listen backlog may hold connections that arrived while paused and
  // will not re-trigger a level; drain them now.
  AcceptReady();
}

void EventLoop::HandleConnectionEvent(std::uint64_t id,
                                      std::uint32_t events) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;  // closed earlier in this batch
  if ((events & EPOLLERR) != 0) {
    CloseConnection(id);
    return;
  }
  // EPOLLHUP still allows draining buffered bytes; the recv-0 path below
  // records the EOF.
  if ((events & (EPOLLIN | EPOLLHUP)) != 0) ReadReady(id);
  if (connections_.find(id) == connections_.end()) return;
  if ((events & EPOLLOUT) != 0) FlushOutput(id);
}

void EventLoop::ReadReady(std::uint64_t id) {
  Connection& connection = connections_[id];
  // While a request is in flight we still read (clients may pipeline),
  // but bounded: past this cap reading pauses until the response drains.
  const std::size_t input_cap = options_.limits.max_header_bytes +
                                options_.limits.max_body_bytes + 8192;
  char chunk[16384];
  for (;;) {
    const ssize_t n = io::RetryRecv(connection.fd, chunk, sizeof(chunk));
    if (n > 0) {
      connection.input.append(chunk, static_cast<std::size_t>(n));
      if (connection.in_flight && connection.input.size() >= input_cap) {
        connection.want_read = false;
        UpdateInterest(id);
        break;
      }
      continue;
    }
    if (n == 0) {
      connection.peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(id);
    return;
  }
  MaybeDispatch(id);
}

void EventLoop::MaybeDispatch(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& connection = it->second;
  if (connection.in_flight || connection.close_after_write) return;

  Result<std::optional<HttpRequest>> parsed =
      TryParseHttpRequest(connection.input, options_.limits);
  if (!parsed.ok()) {
    // Malformed request: best-effort 400, then hang up. Nothing after the
    // error is trustworthy, so drop any remaining input.
    connection.input.clear();
    connection.output += BadRequestBytes(parsed.status());
    connection.close_after_write = true;
    FlushOutput(id);
    return;
  }
  if (!parsed.value().has_value()) {
    // Incomplete: wait for more bytes — unless the peer is gone, which
    // makes this either a clean keep-alive close (empty buffer) or an
    // abandoned partial request that can never complete; either way,
    // close once any pending response has drained.
    if (connection.peer_closed) {
      connection.close_after_write = true;
      FlushOutput(id);
    }
    return;
  }

  Task task;
  task.conn_id = id;
  task.request = std::move(*parsed.value());
  task.close_requested = RequestsConnectionClose(task.request);
  task.enqueued_at = std::chrono::steady_clock::now();
  connection.in_flight = true;
  {
    util::MutexLock lock(task_mutex_);
    tasks_.push_back(std::move(task));
  }
  task_ready_.NotifyOne();
}

void EventLoop::FlushOutput(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& connection = it->second;
  while (connection.output_offset < connection.output.size()) {
    const ssize_t n = io::RetrySend(
        connection.fd, connection.output.data() + connection.output_offset,
        connection.output.size() - connection.output_offset);
    if (n >= 0) {
      connection.output_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!connection.want_write) {
        connection.want_write = true;
        UpdateInterest(id);
      }
      return;
    }
    CloseConnection(id);
    return;
  }
  connection.output.clear();
  connection.output_offset = 0;
  if (connection.close_after_write) {
    CloseConnection(id);
    return;
  }
  bool interest_changed = false;
  if (connection.want_write) {
    connection.want_write = false;
    interest_changed = true;
  }
  if (!connection.want_read && !connection.in_flight) {
    connection.want_read = true;  // backpressure released
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(id);
}

void EventLoop::UpdateInterest(std::uint64_t id) {
  const Connection& connection = connections_[id];
  epoll_event event{};
  event.events = (connection.want_read ? EPOLLIN : 0u) |
                 (connection.want_write ? EPOLLOUT : 0u);
  event.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event);
}

void EventLoop::CloseConnection(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  connections_.erase(it);
}

void EventLoop::DrainCompletions() {
  std::vector<Completion> batch;
  {
    util::MutexLock lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died mid-request
    Connection& connection = it->second;
    connection.in_flight = false;
    if (completion.close_after_write) connection.close_after_write = true;
    connection.output += completion.bytes;
    FlushOutput(completion.conn_id);
    // If the connection survived the write, a pipelined request may
    // already be buffered.
    if (connections_.find(completion.conn_id) != connections_.end()) {
      MaybeDispatch(completion.conn_id);
    }
  }
}

}  // namespace podium::serve
