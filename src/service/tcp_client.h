// TcpClient: the client half of the service's TCP plumbing — a
// blocking, line-oriented connection to a `serve --listen` process.
// The coordinator runs one per worker lane; the CLI's remote commands
// and tests use it to script a server. Deliberately minimal: connect,
// send a line, read a line. An optional timeout guards both directions
// so a hung worker can surface as a structured error instead of a
// stuck coordinator (timeouts report TIMED_OUT, disconnects IO_ERROR —
// the coordinator requeues the chunk elsewhere either way).
//
// Beside the class live the one "host:port" grammar every remote
// command shares (SplitEndpoint / ParseEndpointList) and the one framed
// handshake (ConnectFramed).
//
// POSIX sockets only, like TcpServer; Connect reports Unimplemented on
// other platforms. Not thread-safe: one thread drives one client.

#ifndef KPLEX_SERVICE_TCP_CLIENT_H_
#define KPLEX_SERVICE_TCP_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace kplex {

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;
  TcpClient(TcpClient&& other) noexcept;
  TcpClient& operator=(TcpClient&& other) noexcept;

  /// Connects to host:port. `timeout_seconds` (0 = none) bounds every
  /// subsequent send and receive, not the connect itself.
  Status Connect(const std::string& host, uint16_t port,
                 double timeout_seconds = 0);

  bool connected() const { return fd_ >= 0; }

  /// Sends `line` plus a trailing newline.
  Status SendLine(const std::string& line);

  /// Reads up to the next newline (stripped). IO_ERROR on EOF or a
  /// reset, TIMED_OUT when the receive timeout elapses.
  StatusOr<std::string> ReadLine();

  /// Half-close from another thread: unblocks a SendLine/ReadLine the
  /// owning thread is parked in (they then return IO_ERROR). This is
  /// the ONE cross-thread-safe method — the coordinator uses it to
  /// abort lanes blocked on in-flight shards. The fd stays allocated
  /// until the owner calls Close(), so a concurrent Shutdown can never
  /// touch a recycled descriptor.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes past the last returned newline
  /// Serializes Shutdown against Close (fd lifecycle only; data calls
  /// stay single-threaded).
  std::mutex fd_mutex_;
};

/// Splits "host:port" with a port in 1..65535; InvalidArgument names
/// the malformed endpoint.
Status SplitEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

/// Splits "host:port,host:port,..." into endpoint strings, validating
/// each (empty items are skipped; an empty list is an error).
StatusOr<std::vector<std::string>> ParseEndpointList(const std::string& list);

/// Connects `client` to `endpoint`, switches the session to the framed
/// wire with `hello`, and refuses (FAILED_PRECONDITION) a server that
/// negotiates a protocol below `min_version`; `feature` names what
/// needs it in that refusal.
Status ConnectFramed(TcpClient& client, const std::string& endpoint,
                     double timeout_seconds, uint32_t min_version,
                     const std::string& feature);

}  // namespace kplex

#endif  // KPLEX_SERVICE_TCP_CLIENT_H_
