#include "service/tcp_client.h"

#include <utility>

#include "service/protocol.h"

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_TCP_CLIENT_SOCKETS 1
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace kplex {

TcpClient::~TcpClient() { Close(); }

TcpClient::TcpClient(TcpClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

TcpClient& TcpClient::operator=(TcpClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

#if KPLEX_TCP_CLIENT_SOCKETS

void TcpClient::Shutdown() {
  std::lock_guard<std::mutex> lock(fd_mutex_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpClient::Close() {
  std::lock_guard<std::mutex> lock(fd_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status TcpClient::Connect(const std::string& host, uint16_t port,
                          double timeout_seconds) {
  Close();
  // getaddrinfo resolves both numeric addresses and names; restrict to
  // IPv4/IPv6 stream sockets.
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                               &resolved);
  if (rc != 0) {
    return Status::IoError("cannot resolve '" + host +
                           "': " + ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for '" + host + "'");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Status::IoError("cannot connect to " + host + ":" + port_text +
                             ": " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    fd_ = fd;
    break;
  }
  ::freeaddrinfo(resolved);
  if (fd_ < 0) return last;

  if (timeout_seconds > 0) {
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  // One-line requests deserve immediate segments.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
#if defined(SO_NOSIGPIPE)
  // No MSG_NOSIGNAL on macOS: suppress SIGPIPE at the socket level so
  // a write to a dead worker returns EPIPE (a retryable IO_ERROR for
  // the coordinator) instead of killing the process.
  ::setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
  return Status::Ok();
}

Status TcpClient::SendLine(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  const std::string bytes = line + "\n";
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      Close();
      return timed_out
                 ? Status::TimedOut("send timed out")
                 : Status::IoError(std::string("send: ") +
                                   std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

StatusOr<std::string> TcpClient::ReadLine() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  char chunk[4096];
  // Each scan resumes where the last one stopped, so a long line costs
  // time linear in its length, not one rescan per received chunk.
  for (std::size_t scanned = 0;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scanned = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Close();
      return Status::TimedOut("receive timed out");
    }
    if (n <= 0) {
      Close();
      return Status::IoError(n == 0 ? "connection closed by the server"
                                    : std::string("recv: ") +
                                          std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

#else  // !KPLEX_TCP_CLIENT_SOCKETS

void TcpClient::Shutdown() {}

void TcpClient::Close() { buffer_.clear(); }

Status TcpClient::Connect(const std::string&, uint16_t, double) {
  return Status::Unimplemented("TCP sockets are unavailable on this platform");
}

Status TcpClient::SendLine(const std::string&) {
  return Status::FailedPrecondition("client is not connected");
}

StatusOr<std::string> TcpClient::ReadLine() {
  return Status::FailedPrecondition("client is not connected");
}

#endif  // KPLEX_TCP_CLIENT_SOCKETS

Status SplitEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  Status malformed = Status::InvalidArgument(
      "endpoint must be host:port (port 1..65535), got '" + endpoint + "'");
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return malformed;
  }
  uint32_t parsed = 0;
  for (std::size_t i = colon + 1; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (c < '0' || c > '9') return malformed;
    parsed = parsed * 10 + static_cast<uint32_t>(c - '0');
    if (parsed > 65535) return malformed;  // also stops overflow
  }
  if (parsed < 1) return malformed;
  *host = endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return Status::Ok();
}

StatusOr<std::vector<std::string>> ParseEndpointList(
    const std::string& list) {
  std::vector<std::string> endpoints;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!token.empty()) {
      std::string host;
      uint16_t port = 0;
      KPLEX_RETURN_IF_ERROR(SplitEndpoint(token, &host, &port));
      endpoints.push_back(token);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("endpoint list is empty");
  }
  return endpoints;
}

Status ConnectFramed(TcpClient& client, const std::string& endpoint,
                     double timeout_seconds, uint32_t min_version,
                     const std::string& feature) {
  std::string host;
  uint16_t port = 0;
  KPLEX_RETURN_IF_ERROR(SplitEndpoint(endpoint, &host, &port));
  KPLEX_RETURN_IF_ERROR(client.Connect(host, port, timeout_seconds));
  // The session starts in text mode; the handshake line is text, the
  // response already framed.
  KPLEX_RETURN_IF_ERROR(client.SendLine(
      "hello proto=" + std::to_string(kProtocolVersion) + " mode=framed"));
  auto hello = client.ReadLine();
  if (!hello.ok()) return hello.status();
  auto negotiated = ParseFramedPayload<HelloResponse>(*hello);
  if (!negotiated.ok()) return negotiated.status();
  const uint32_t version = negotiated->version;
  if (version < min_version) {
    return Status::FailedPrecondition(
        endpoint + " negotiated protocol v" + std::to_string(version) +
        " but " + feature + " needs v" + std::to_string(min_version) +
        " (upgrade it)");
  }
  return Status::Ok();
}

}  // namespace kplex
