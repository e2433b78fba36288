// ServiceSession: the wire adapter behind `kplex_cli serve` and each
// TCP connection. A session binds one output stream to a ServiceApi
// (owned, or shared with other sessions of the same serve process) and
// runs the protocol loop: parse a line into a typed Request
// (service/protocol.h), execute it through the api, format the typed
// Response back onto the stream. All command syntax, validation, and
// rendering live in the protocol codecs — this class only keeps the
// per-connection state the protocol is stateful about:
//
//   - the wire mode (text until a `hello mode=framed` handshake),
//   - the error tally for batch exit codes (a failed job counts exactly
//     once no matter how often or through which command it surfaces),
//   - the ids of jobs this session submitted, so a dropped TCP client's
//     outstanding work can be cancelled (CancelOutstandingJobs).
//
// The text grammar and its output are byte-identical to the historical
// ServiceSession (see docs/SERVE.md for the command reference). Blank
// lines and '#' comments are skipped; a failing command prints
// "error: ..." and the session continues.
//
// Concurrency: one session is single-threaded (its transport's thread),
// but many sessions may share one ServiceApi — all printing happens on
// the session's own thread, never a dispatcher worker's.

#ifndef KPLEX_SERVICE_SERVICE_SESSION_H_
#define KPLEX_SERVICE_SERVICE_SESSION_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/service_api.h"
#include "service/wire_session.h"

namespace kplex {

struct ServiceSessionOptions {
  /// Catalog memory budget in bytes (0 = unlimited).
  std::size_t memory_budget_bytes = 0;
  /// Result-cache capacity in entries (0 disables caching).
  std::size_t result_cache_capacity = 64;
  /// Echo each command before executing it (script mode readability).
  bool echo = false;
  /// Dispatcher worker threads. 1 (the default) preserves the serial
  /// session semantics; N > 1 lets `submit`ted jobs run concurrently
  /// over the shared catalog. 0 is clamped to 1.
  uint32_t workers = 1;
};

class ServiceSession : public WireSession {
 public:
  /// Standalone session: constructs and owns its own ServiceApi.
  explicit ServiceSession(std::ostream& out,
                          ServiceSessionOptions options = {});

  /// Adapter over a shared ServiceApi (one per TCP connection; the api
  /// outlives every session through the shared_ptr).
  ServiceSession(std::ostream& out, std::shared_ptr<ServiceApi> api,
                 bool echo = false);

  /// Executes one wire line (text or framed, per the negotiated mode).
  /// Returns false once `quit` is reached.
  bool ExecuteLine(const std::string& line) override;

  /// Executes lines from `in` until EOF or `quit`; returns the number of
  /// failed commands (job failures nobody waited on included).
  uint64_t RunScript(std::istream& in);

  /// Requests cancellation of every non-terminal job this session
  /// created — `submit`ted jobs and the job behind an in-flight
  /// synchronous `mine`. Unlike the rest of the class this method is
  /// safe to call from another thread (a transport's disconnect
  /// watcher fires it while the session thread is blocked in a mine).
  void CancelOutstandingJobs() override;

  uint64_t errors() const { return errors_; }
  WireMode mode() const override { return mode_; }

  ServiceApi& api() { return *api_; }
  GraphCatalog& catalog() { return api_->catalog(); }
  QueryEngine& engine() { return api_->engine(); }
  ServiceDispatcher& dispatcher() { return api_->dispatcher(); }

 private:
  /// Executes a parsed request and writes its response; returns false
  /// for quit.
  bool Dispatch(const Request& request);
  /// Writes the buffered plex bodies of a results=stream mine as
  /// bounded result_chunk frames (chunk size from the request, default
  /// kDefaultResultChunkSize), ahead of the final verdict frame. An
  /// empty result emits one empty last chunk.
  void EmitResultChunks(uint64_t request_id, const QueryRequest& query,
                        const JobInfo& job);
  /// Synchronous mine = tracked submit + wait: the job id lands in
  /// submitted_jobs_ *before* this thread blocks, so a disconnect
  /// watcher can cancel it mid-run (ServiceApi's one-shot mine handler
  /// offers no such window). Output is shaped exactly like
  /// ServiceApi's MineResponse.
  Response ExecuteMine(uint64_t request_id, const MineRequest& mine);
  void RecordSubmittedJob(uint64_t id);
  /// Prints "error: ..." in the current mode and counts it. In framed
  /// mode the response carries `request_id` (the client's correlation
  /// id when the failed frame had a readable one).
  void Fail(const Status& status, uint64_t request_id = 0);
  /// Error-tally bookkeeping: ErrorResponses, and terminal job failures
  /// (each job id counted once, wherever it surfaces).
  void NoteResponse(const Response& response);
  /// Folds failures of terminal jobs into errors_ (each job once).
  void CountTerminalFailures();

  std::ostream& out_;
  bool echo_ = false;
  WireMode mode_ = WireMode::kText;
  std::shared_ptr<ServiceApi> api_;
  /// Jobs created through this session (for disconnect cancellation).
  /// Guarded by jobs_mutex_: the one piece of session state a
  /// transport's watcher thread reads concurrently.
  std::mutex jobs_mutex_;
  std::vector<uint64_t> submitted_jobs_;
  /// Failed-job ids already counted toward errors_: a job failure is one
  /// error no matter how often (or through which command) it surfaces.
  std::set<uint64_t> counted_failed_jobs_;
  uint64_t errors_ = 0;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_SERVICE_SESSION_H_
