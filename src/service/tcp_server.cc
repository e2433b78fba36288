#include "service/tcp_server.h"

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#endif

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "service/service_session.h"
#include "util/logging.h"

namespace kplex {

// One accepted socket: its fd, serving thread, and per-connection
// session state. The session lives on the thread; `done` lets the
// accept loop reap finished threads without blocking on live ones.
struct TcpServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

#if KPLEX_HAVE_SOCKETS

namespace {

/// Lines longer than this are a protocol violation (no legitimate
/// command approaches it); the connection is told and closed instead of
/// buffering without bound.
constexpr std::size_t kMaxLineBytes = 1 << 20;

Counter& ConnectionsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_tcp_connections_total");
  return counter;
}
Counter& RefusedTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_tcp_refused_total");
  return counter;
}
Gauge& ActiveConnectionsGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("kplex_tcp_active_connections");
  return gauge;
}
Counter& BytesReadTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_tcp_bytes_read_total");
  return counter;
}
Counter& BytesWrittenTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_tcp_bytes_written_total");
  return counter;
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a vanished client must surface as EPIPE, not kill
    // the server process with SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
    BytesWrittenTotal().Increment(static_cast<uint64_t>(n));
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(std::shared_ptr<ServiceApi> api, TcpServerOptions options)
    : TcpServer(
          [api](std::ostream& out) -> std::unique_ptr<WireSession> {
            return std::make_unique<ServiceSession>(out, api, /*echo=*/false);
          },
          [api] { api->CancelAllJobs(); }, std::move(options)) {}

TcpServer::TcpServer(SessionFactory factory, std::function<void()> stop_hook,
                     TcpServerOptions options)
    : factory_(std::move(factory)),
      stop_hook_(std::move(stop_hook)),
      options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server is already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("cannot create socket: ") +
                           std::strerror(errno));
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address = {};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse listen address '" +
                                   options_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + error);
  }
  if (::listen(fd, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot listen: " + error);
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot read the bound port: " + error);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Only a dead listen socket ends the loop. Everything else is a
      // per-connection or transient condition — a client that died in
      // the backlog (ECONNABORTED, EPROTO, ENETDOWN, ...) or a
      // momentary fd shortage — and exiting on one would leave the
      // kernel completing handshakes nobody ever services.
      if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK) {
        break;  // listen socket shut down (Stop) or never valid
      }
      if (errno == EMFILE || errno == ENFILE) {
        KPLEX_LOG(Warning) << "tcp server: accept failed transiently: "
                           << std::strerror(errno);
        // Back off briefly so the loop doesn't spin while the process
        // is out of descriptors.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ReapFinishedLocked();
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (connections_.size() >= options_.max_connections) {
      ++refused_;
      RefusedTotal().Increment();
      Response response;
      response.payload = ErrorResponse{Status::FailedPrecondition(
          "connection limit reached (" +
          std::to_string(options_.max_connections) + ")")};
      std::ostringstream line;
      FormatTextResponse(response, line);
      WriteAll(fd, line.str());
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      continue;
    }
    ++accepted_;
    ConnectionsTotal().Increment();
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { ServeConnection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void TcpServer::ServeConnection(Connection* connection) {
  ActiveConnectionsGauge().Add(1);
  std::ostringstream out;
  const std::unique_ptr<WireSession> session_owner = factory_(out);
  WireSession& session = *session_owner;

  // Hangup watcher: while this thread is blocked inside a synchronous
  // command (a long `mine`), nobody reads the socket — so a second,
  // poll-based eye notices the peer *vanishing* and cancels the
  // session's jobs (mine's included: the session records the job id
  // before it blocks). Only a full hangup or reset (POLLHUP/POLLERR —
  // a crashed or abortively-closed client) counts as vanished; an
  // orderly half-close (FIN) is the normal "input done, still reading
  // responses" shape of `printf ... | nc` pipelines, whose in-flight
  // work must run to completion. Once the peer has vanished the watcher
  // keeps cancelling until this thread is done: a job is recorded only
  // after its submit returns, and by then it may already be running,
  // so a single sweep can miss it. CancelOutstandingJobs is the one
  // session method that is cross-thread safe.
  std::atomic<bool> connection_done{false};
  std::thread watcher([this, connection, &session, &connection_done] {
    bool vanished = false;
    while (!connection_done.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire)) {
      if (vanished) {
        session.CancelOutstandingJobs();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      pollfd probe = {};
      probe.fd = connection->fd;
      probe.events = 0;  // error/hangup events are always reported
      const int ready = ::poll(&probe, 1, 100);
      vanished = ready > 0 &&
                 (probe.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    }
  });

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    // Drain every complete line before reading more bytes.
    std::size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const bool keep_going = session.ExecuteLine(line);
      const std::string bytes = out.str();
      out.str("");
      if (!bytes.empty() && !WriteAll(connection->fd, bytes)) open = false;
      if (!keep_going) open = false;
    }
    if (!open) break;
    if (buffer.size() > kMaxLineBytes) {
      std::ostringstream error_line;
      WriteResponse({0, ErrorResponse{Status::InvalidArgument(
                            "line exceeds the 1 MiB frame limit")}},
                    session.mode(), error_line);
      WriteAll(connection->fd, error_line.str());
      break;
    }
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client closed (or Stop shut the socket down)
    BytesReadTotal().Increment(static_cast<uint64_t>(n));
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  // Teardown: stop the watcher first (it polls the fd this block is
  // about to close), then cancel whatever this client left queued or
  // running — abandoned work must not occupy dispatcher workers.
  connection_done.store(true, std::memory_order_release);
  watcher.join();
  session.CancelOutstandingJobs();
  {
    // The mutex orders this close against Stop()'s shutdown() on the
    // same fd: once fd is -1, Stop leaves it alone (no shutdown on a
    // recycled descriptor number).
    std::lock_guard<std::mutex> lock(mutex_);
    ::shutdown(connection->fd, SHUT_RDWR);
    ::close(connection->fd);
    connection->fd = -1;
  }
  connection->done.store(true, std::memory_order_release);
  ActiveConnectionsGauge().Add(-1);
}

void TcpServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown alone is not portable for listen
  // sockets, but close always is; the accept loop exits on failure.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // Unblock connection reads, then release any worker still mining for
  // a session that is about to be torn down: server shutdown cancels
  // outstanding work (the per-job flags unwind running queries in
  // milliseconds), so joins below are prompt even mid-query.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  if (stop_hook_) stop_hook_();
  std::vector<std::unique_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    to_join.swap(connections_);
  }
  for (auto& connection : to_join) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

TcpServer::Stats TcpServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.accepted = accepted_;
  stats.refused = refused_;
  for (const auto& connection : connections_) {
    if (!connection->done.load(std::memory_order_acquire)) ++stats.active;
  }
  return stats;
}

#else  // !KPLEX_HAVE_SOCKETS

TcpServer::TcpServer(std::shared_ptr<ServiceApi> api, TcpServerOptions options)
    : TcpServer(SessionFactory(), std::function<void()>(),
                std::move(options)) {
  (void)api;
}

TcpServer::TcpServer(SessionFactory factory, std::function<void()> stop_hook,
                     TcpServerOptions options)
    : factory_(std::move(factory)),
      stop_hook_(std::move(stop_hook)),
      options_(std::move(options)) {}

TcpServer::~TcpServer() = default;

Status TcpServer::Start() {
  return Status::Unimplemented("TCP serving requires POSIX sockets");
}

void TcpServer::Stop() {}

TcpServer::Stats TcpServer::stats() const { return {}; }

#endif  // KPLEX_HAVE_SOCKETS

}  // namespace kplex
