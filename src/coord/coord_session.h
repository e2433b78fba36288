// CoordSession: the wire adapter of the coordinator daemon. One
// session per connection (the TcpServer's session factory builds
// them), speaking the same v5 text/framed grammar as a worker session
// but dispatching to a shared Coordinator instead of a ServiceApi:
//
//   mine QUERY        run a coordinated mine synchronously (submit +
//                     wait; the response is a normal mine verdict, so
//                     `kplex_cli mine --endpoint` is the same client for
//                     a daemon as for a worker)
//   submit QUERY      enqueue a coordinated mine, return its job id
//   wait ID           block until the coordinated job is terminal
//   jobs              list every coordinated job
//   register H:P      add (or revive) a worker endpoint
//   heartbeat ID      worker liveness refresh
//   drain ID          graceful worker leave
//   workers           the worker roster
//   metrics [FMT]     the daemon's metrics registry
//   hello/help/quit   as on a worker
//
// Everything else (load, shardsubmit, plan, cancel, stats, ...) is
// refused with a structured InvalidArgument naming the daemon — a
// coordinator schedules work, it does not hold graphs.
//
// Disconnects do NOT cancel coordinated jobs: a job spans every
// worker, other clients may be waiting on it, and a submitter that
// reconnects can `wait` for it — so CancelOutstandingJobs is a no-op.

#ifndef KPLEX_COORD_COORD_SESSION_H_
#define KPLEX_COORD_COORD_SESSION_H_

#include <memory>
#include <ostream>
#include <string>

#include "coord/coordinator.h"
#include "service/protocol.h"
#include "service/wire_session.h"

namespace kplex {

class CoordSession : public WireSession {
 public:
  CoordSession(std::ostream& out, std::shared_ptr<Coordinator> coordinator);

  bool ExecuteLine(const std::string& line) override;
  WireMode mode() const override { return mode_; }
  void CancelOutstandingJobs() override {}

  uint64_t errors() const { return errors_; }

 private:
  bool Dispatch(const Request& request);
  ResponsePayload Execute(const RequestPayload& payload);
  void Fail(const Status& status, uint64_t request_id = 0);

  std::ostream& out_;
  std::shared_ptr<Coordinator> coordinator_;
  WireMode mode_ = WireMode::kText;
  uint64_t errors_ = 0;
};

}  // namespace kplex

#endif  // KPLEX_COORD_COORD_SESSION_H_
