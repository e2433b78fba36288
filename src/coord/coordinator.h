// Coordinator: the one scheduler of sharded mining. The coordinator
// daemon (`kplex_cli coordinate`) keeps one alive as a service;
// `kplex_cli mine --endpoints` runs one in process for a single job
// (add the endpoints, submit, wait, stop). It owns a WorkerPool and
// runs submitted mines as *two-level chunked* work:
//
//  1. Plan. A `plan` probe against one worker returns the seed-space
//     size, the admission content hash, and per-seed cost signals
//     (degree x coreness in the canonical order). The planner cuts the
//     space into chunks_per_worker x workers cost-balanced chunks —
//     many more chunks than workers, so the queue absorbs most skew.
//
//  2. Execute. One lane thread per schedulable worker pops chunks and
//     round-trips them as shardsubmit + shardwait. When the queue
//     drains while chunks are still in flight, an idle lane *steals*:
//     it picks the longest-running un-stolen chunk and sends
//     `shardstop` to its worker over a fresh ephemeral connection. The
//     victim stops at the next stage boundary and returns a yielded
//     result covering a prefix; the victim's lane merges the prefix
//     and requeues the tail, which the idle lane then picks up.
//
// Every merged piece is a complete answer for a disjoint seed range,
// so the fold (core/sink.h MergeableResult) reproduces the exact
// single-process count and fingerprint; a coverage check asserts the
// merged ranges partition [0, total_seeds) before a job reports done.
//
// Failure taxonomy (per chunk round trip):
//  - transport failure: the chunk may not have completed anywhere —
//    requeue it, mark the worker dead, retire the lane. The job
//    survives as long as one lane does.
//  - FAILED_PRECONDITION at shardsubmit (admission hash mismatch):
//    that worker holds different graph bytes — requeue the chunk,
//    retire the lane; the job survives on matching workers.
//  - any other worker verdict (bad options, failed job, partial
//    non-yield result): deterministic — it would repeat anywhere, so
//    the job aborts.
//
// Jobs run one at a time in submission order (a coordinated mine
// already spans every worker; interleaving two would just thrash).
// Workers may join (register) mid-job — a lane is spawned for them
// immediately — and leave via drain (finish the current chunk, get no
// more) or death (chunk requeued).

#ifndef KPLEX_COORD_COORDINATOR_H_
#define KPLEX_COORD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "coord/worker_pool.h"
#include "service/dispatcher.h"
#include "service/query_engine.h"
#include "util/status.h"

namespace kplex {

struct CoordinatorOptions {
  /// Chunks planned per schedulable worker. More chunks = finer
  /// balancing granularity but more round-trip overhead.
  uint32_t chunks_per_worker = 8;
  /// Per-socket-operation timeout for lane connections, seconds
  /// (0 = none; a hung worker then pins its lane until it answers).
  double io_timeout_seconds = 0;
  /// A chunk younger than this is never stolen — it is about to finish
  /// anyway, and the steal round trip would cost more than it saves.
  double steal_min_seconds = 0.02;
};

/// Checks that `query` is one a coordinated mine can answer exactly.
/// Coordinated mines are count-exact by construction (the merge algebra
/// needs every chunk's complete result set), so options that truncate
/// or reshape the served set — max-results, results=stream, filters,
/// top=K, mode=maximum, cursors — are rejected with a structured
/// InvalidArgument explaining the incompatibility, as is the fp
/// baseline (no seed ranges). Coordinator::Submit runs it before any
/// connection opens, so the explanation reaches the caller first.
Status ValidateCoordinatedQuery(const QueryRequest& query);

/// The merge rule for one decoded shard_result: true iff the shard
/// answers its whole requested range — it is done, and was neither cut
/// short (timed out, result-capped, cancelled) nor yielded. A yielded
/// shard is complete only for its covered prefix.
bool ShardIsComplete(const JobInfo& shard);

/// Terminal record of one chunk assignment that merged.
struct CoordChunkOutcome {
  uint32_t begin = 0;
  uint32_t end = 0;        ///< the range that actually merged (post-steal)
  std::string endpoint;
  uint64_t plexes = 0;
  double seconds = 0;      ///< worker-side wall time
  bool yielded = false;    ///< true: a stolen prefix (its tail requeued)
};

/// One coordinated job as reported by wait/jobs.
struct CoordJobInfo {
  uint64_t id = 0;
  QueryRequest query;
  std::string state;       ///< "queued" | "running" | "done" | "failed"
  Status status;           ///< non-OK when failed
  uint64_t num_plexes = 0;
  uint64_t max_plex_size = 0;
  uint64_t fingerprint = 0;
  uint64_t fingerprint_xor = 0;
  uint64_t content_hash = 0;
  uint64_t total_seeds = 0;
  uint64_t chunks = 0;        ///< chunk assignments merged
  uint64_t steals = 0;        ///< successful steals (yielded prefixes)
  uint64_t requeues = 0;      ///< chunks re-dispatched after a failure
  double seconds = 0;         ///< coordinator wall time, probe included
  std::vector<CoordChunkOutcome> outcomes;  ///< merge order
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Registers (or revives) a worker endpoint; returns its pool id.
  /// If a job is running, a lane for the new worker joins it at once.
  StatusOr<uint64_t> AddWorker(const std::string& endpoint);

  /// Worker lifecycle verbs (see worker_pool.h for semantics).
  Status Heartbeat(uint64_t worker);
  Status Drain(uint64_t worker);
  std::vector<WorkerRecord> Workers() const;

  /// Enqueues one coordinated mine; returns its job id. The query is
  /// validated (ValidateCoordinatedQuery) and must not carry its own
  /// seed range — the coordinator owns the split.
  StatusOr<uint64_t> Submit(const QueryRequest& query);

  /// Blocks until the job is terminal; NotFound for unknown ids.
  StatusOr<CoordJobInfo> Wait(uint64_t id);

  /// Snapshot of every job, in submission order.
  std::vector<CoordJobInfo> Jobs() const;

  /// Fails the running job (if any), stops the scheduler, joins every
  /// thread. Idempotent; the destructor calls it.
  void Stop();

 private:
  struct JobRun;

  void SchedulerLoop();
  void RunJob(CoordJobInfo& job, const std::shared_ptr<JobRun>& run);
  void LaneMain(const std::shared_ptr<JobRun>& run, uint64_t worker_id,
                std::string endpoint);

  const CoordinatorOptions options_;
  WorkerPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<CoordJobInfo>> jobs_;  // stable addresses
  std::shared_ptr<JobRun> active_run_;  ///< non-null while a job runs
  uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  std::thread scheduler_;
};

}  // namespace kplex

#endif  // KPLEX_COORD_COORDINATOR_H_
