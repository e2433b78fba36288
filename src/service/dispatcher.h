// ServiceDispatcher: the concurrency layer of the query service. One
// dispatcher owns a bounded job queue and N worker threads, all running
// queries through a single shared QueryEngine (and therefore one shared
// GraphCatalog and result cache). Clients submit a QueryRequest and get
// back a job id immediately; the job runs on the next free worker.
//
// Cancellation is cooperative and per-job: every job owns a
// std::atomic<bool> whose address is wired into the request's
// EnumOptions::cancel hook, which both enumerators poll every few
// thousand branch calls. Cancel() on a queued job retires it without
// ever running; on a running job it flips the flag and the engine
// unwinds within a few milliseconds.
//
// Thread-safety: every public method may be called from any thread.
// Workers never touch client streams — result delivery is pull-based
// (Wait/GetJob/Jobs), so callers keep single-writer output discipline.
// See docs/CONCURRENCY.md for the full threading model.

#ifndef KPLEX_SERVICE_DISPATCHER_H_
#define KPLEX_SERVICE_DISPATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/query_engine.h"
#include "util/status.h"

namespace kplex {

/// Lifecycle of a submitted job. Queued and running jobs are live;
/// done/cancelled/failed are terminal and never change again.
enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed };

/// Stable lowercase name ("queued", "running", ...).
const char* JobStateName(JobState state);

struct DispatcherOptions {
  /// Worker threads. 0 is clamped to 1 (serial execution, but still
  /// asynchronous submission).
  uint32_t workers = 1;
  /// Maximum number of *queued* (not yet running) jobs; submissions
  /// beyond it are rejected rather than buffered without bound.
  std::size_t queue_capacity = 256;
  /// How many *finished* jobs stay queryable through GetJob/Jobs/Wait.
  /// Older terminal jobs are pruned (oldest-finished first) so a
  /// long-lived service does not grow without bound; a pruned id then
  /// reports NotFound. Live (queued/running) jobs are never pruned.
  std::size_t finished_retention = 1024;
};

/// Point-in-time snapshot of one job (for `jobs`/`wait` output).
struct JobInfo {
  uint64_t id = 0;
  QueryRequest request;  ///< as submitted (its cancel pointer is unset)
  JobState state = JobState::kQueued;
  /// True once the job has been picked up by a worker — distinguishes
  /// a kCancelled job that never ran from one cancelled mid-run
  /// (whose result carries partial counts).
  bool started = false;
  /// Valid in kDone and in kCancelled when started.
  QueryResult result;
  /// Non-OK in kFailed.
  Status status;
};

class ServiceDispatcher {
 public:
  explicit ServiceDispatcher(QueryEngine& engine,
                             DispatcherOptions options = {});

  /// Cancels every unfinished job, then joins the workers. Running jobs
  /// unwind through their cancel flags, so destruction is prompt even
  /// mid-mine.
  ~ServiceDispatcher();

  ServiceDispatcher(const ServiceDispatcher&) = delete;
  ServiceDispatcher& operator=(const ServiceDispatcher&) = delete;

  /// Enqueues one query; returns its job id. FailedPrecondition when
  /// the queue is full or the dispatcher is shutting down. The
  /// request's own `cancel` pointer is ignored — cancellation goes
  /// through Cancel(id).
  StatusOr<uint64_t> Submit(const QueryRequest& request);

  /// Requests cancellation. A queued job is retired immediately
  /// (Wait returns a cancelled result without it ever running); a
  /// running job unwinds at the engine's next cancellation poll.
  /// NotFound for unknown ids, FailedPrecondition for terminal jobs.
  Status Cancel(uint64_t id);

  /// Requests a cooperative yield (work-stealing, sharding v2): flips
  /// the job's yield flag so a running enumeration stops cleanly at
  /// the next stage boundary (the next seed when sequential), reporting
  /// a complete answer for its covered prefix. A queued job is untouched (it will observe the
  /// flag the moment it starts and yield with an empty covered range).
  /// NotFound for unknown ids, FailedPrecondition for terminal jobs —
  /// the job finished whole, there is nothing left to steal.
  Status Yield(uint64_t id);

  /// Snapshot of one job. NotFound for unknown ids.
  StatusOr<JobInfo> GetJob(uint64_t id) const;

  /// Snapshots of all jobs, in submission order.
  std::vector<JobInfo> Jobs() const;

  /// Per-state tallies over retained jobs — cheap (no snapshot copies)
  /// for status lines that only need counts.
  struct JobCounts {
    uint64_t queued = 0;
    uint64_t running = 0;
    uint64_t done = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
  };
  JobCounts Counts() const;

  /// Blocks until the job reaches a terminal state, then returns its
  /// snapshot. NotFound for unknown ids.
  StatusOr<JobInfo> Wait(uint64_t id);

  /// Blocks until every submitted job is terminal.
  void Drain();

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  // Jobs live in shared_ptrs so a worker can run one while Cancel /
  // GetJob / shutdown reach it through the map; the atomic gives the
  // cancel flag a stable address for EnumOptions::cancel.
  struct Job {
    uint64_t id = 0;
    QueryRequest request;
    std::atomic<bool> cancel{false};
    std::atomic<bool> yield{false};
    JobState state = JobState::kQueued;
    bool started = false;
    /// Monotonic enqueue tick (WallTimer::NowNanos) feeding the
    /// queue-wait histogram when a worker picks the job up.
    int64_t enqueued_nanos = 0;
    QueryResult result;
    Status status;
  };

  void WorkerLoop();
  JobInfo SnapshotLocked(const Job& job) const;
  void FinishCancelledLocked(Job& job);
  /// Records a terminal transition and prunes jobs beyond
  /// finished_retention (oldest-finished first).
  void RecordFinishedLocked(const Job& job);

  QueryEngine& engine_;
  const DispatcherOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stop
  std::condition_variable done_cv_;  // waiters: some job went terminal
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::deque<uint64_t> finished_order_;  // terminal job ids, oldest first
  uint64_t next_id_ = 1;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_DISPATCHER_H_
