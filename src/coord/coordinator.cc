#include "coord/coordinator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <utility>

#include "coord/planner.h"
#include "core/sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/tcp_client.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kplex {
namespace {

Counter& CoordChunksTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_chunks_total");
  return counter;
}
Counter& CoordStealsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_steals_total");
  return counter;
}
Counter& CoordRequeuesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_requeues_total");
  return counter;
}
Counter& CoordWorkersJoinedTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "kplex_coord_workers_joined_total");
  return counter;
}
Counter& CoordWorkersLeftTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_workers_left_total");
  return counter;
}
Histogram& CoordChunkSeconds() {
  static Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("kplex_coord_chunk_seconds");
  return histogram;
}

/// One framed round trip decoded as a T, keeping socket failures (chunk
/// may not have completed; retryable elsewhere) apart from decoded
/// worker verdicts (deterministic; they would repeat).
template <typename T>
struct Reply {
  bool transport_failed = false;
  StatusOr<T> payload = Status::Internal("no reply");
};

template <typename T>
Reply<T> Call(TcpClient& client, const Request& request) {
  Reply<T> reply;
  Status sent = client.SendLine(FormatFramedRequest(request));
  StatusOr<std::string> line =
      sent.ok() ? client.ReadLine() : StatusOr<std::string>(sent);
  reply.transport_failed = !line.ok();
  reply.payload =
      line.ok() ? ParseFramedPayload<T>(*line) : StatusOr<T>(line.status());
  return reply;
}

/// What the planning probe learned from one worker.
struct Probe {
  uint64_t content_hash = 0;
  uint64_t total_seeds = 0;
  std::vector<uint64_t> costs;  ///< per seed, in canonical order
};

/// `reply`'s failure, carried over to a reply of another type.
template <typename T, typename U>
Reply<T> FailedAs(const Reply<U>& reply) {
  return {reply.transport_failed, reply.payload.status()};
}

/// Probes one worker with `plan` for the hash, the seed-space size and
/// the per-seed costs. On a transport failure the caller tries another
/// worker; a deterministic verdict aborts the job.
Reply<Probe> ProbeWorker(const std::string& endpoint,
                         const QueryRequest& query, double timeout_seconds) {
  TcpClient client;
  Status connected = ConnectFramed(client, endpoint, timeout_seconds,
                                   kProtocolVersionCoordination,
                                   "coordination");
  if (!connected.ok()) return {true, connected};
  Request request;
  request.id = 1;
  request.payload = PlanRequest{query.graph, query.k, query.q};
  auto plan = Call<PlanResponse>(client, request);
  if (!plan.payload.ok()) return FailedAs<Probe>(plan);
  return {false, Probe{plan.payload->content_hash, plan.payload->total_seeds,
                       EstimateSeedCosts(plan.payload->degrees,
                                         plan.payload->coreness)}};
}

/// Best-effort steal signal: a fresh ephemeral connection (so the
/// victim lane's own connection stays undisturbed, and a dropped
/// stealer cancels nothing — shardstop submits no jobs). Benign
/// refusals (the shard already finished) count as delivered.
Status SendShardStop(const std::string& endpoint, uint64_t remote_job,
                     double timeout_seconds) {
  TcpClient client;
  KPLEX_RETURN_IF_ERROR(ConnectFramed(client, endpoint, timeout_seconds,
                                      kProtocolVersionCoordination,
                                      "coordination"));
  Request request;
  request.id = 2;
  request.payload = ShardStopRequest{remote_job};
  auto acked = Call<ShardStopResponse>(client, request);
  if (acked.payload.ok() ||
      (!acked.transport_failed &&
       acked.payload.status().code() == StatusCode::kFailedPrecondition)) {
    return Status::Ok();
  }
  return acked.payload.status();
}

}  // namespace

/// Shared fan-out state of one running job: the chunk queue, the
/// in-flight table stealers scan, and the merge fold — all under one
/// mutex. Lanes hold a shared_ptr so a late-joining lane outliving an
/// aborted RunJob never dangles.
struct Coordinator::JobRun {
  std::mutex mutex;
  std::condition_variable cv;

  // Immutable after construction.
  CoordinatorOptions options;
  QueryRequest query;  ///< base query; lanes stamp seed ranges onto it
  uint64_t content_hash = 0;
  uint64_t total_seeds = 0;
  uint64_t trace_id = 0;

  struct PendingChunk {
    uint32_t begin = 0;
    uint32_t end = 0;
    /// Minimum age before this range may be stolen, beyond
    /// steal_min_seconds. A steal that covered no seed landed before
    /// enumeration began (during the worker's reduction); stealing the
    /// requeued range as early again would livelock whenever the
    /// reduction outlasts a steal round trip. So it waits at least as
    /// long as the missed attempt ran, and twice its previous wait.
    int64_t steal_min_nanos = 0;
  };
  std::deque<PendingChunk> queue;

  struct InFlight {
    uint32_t begin = 0;
    uint32_t end = 0;
    uint64_t worker_id = 0;
    std::string endpoint;
    uint64_t remote_job = 0;  ///< 0 until the shardsubmit ack lands
    int64_t started_nanos = 0;
    int64_t steal_min_nanos = 0;  ///< the chunk's PendingChunk value
    bool steal_requested = false;
  };
  std::map<uint64_t, InFlight> in_flight;  // key: local ticket
  uint64_t next_ticket = 1;

  MergeableResult merged;
  std::vector<std::pair<uint32_t, uint32_t>> covered;
  std::vector<CoordChunkOutcome> outcomes;
  uint64_t steals = 0;
  uint64_t requeues = 0;
  uint64_t chunk_count = 0;

  bool failed = false;
  Status failure;
  bool finished = false;  ///< RunJob observed completion (or failure)

  uint32_t active_lanes = 0;
  /// Worker ids that currently have a lane (prevents duplicate lanes
  /// when a live worker re-registers; a dead lane removes itself, so
  /// a restarted worker's re-register gets a fresh lane).
  std::vector<uint64_t> laned_workers;
  /// Live lane sockets, for unblocking lanes parked in a recv when the
  /// job aborts (TcpClient::Shutdown is the cross-thread-safe method).
  std::vector<TcpClient*> lane_clients;
  std::vector<std::thread> lane_threads;

  bool HasLaneLocked(uint64_t worker_id) const {
    return std::find(laned_workers.begin(), laned_workers.end(), worker_id) !=
           laned_workers.end();
  }

  /// Folds the complete answer `result` for seeds [begin, end) into the
  /// merge and records its outcome.
  void MergeLocked(uint32_t begin, uint32_t end, const std::string& endpoint,
                   const QueryResult& result, bool yielded) {
    MergeableResult piece;
    piece.count = result.num_plexes;
    piece.xor_hash = result.fingerprint_xor;
    piece.max_plex_size = result.max_plex_size;
    merged.Merge(piece);
    covered.emplace_back(begin, end);
    outcomes.push_back(
        {begin, end, endpoint, result.num_plexes, result.seconds, yielded});
    ++chunk_count;
    CoordChunksTotal().Increment();
  }

  void FailLocked(Status status) {
    if (!failed) {
      failed = true;
      failure = std::move(status);
    }
    for (TcpClient* client : lane_clients) client->Shutdown();
    cv.notify_all();
  }
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

Coordinator::~Coordinator() { Stop(); }

bool ShardIsComplete(const JobInfo& shard) {
  const QueryResult& result = shard.result;
  return shard.state == JobState::kDone && !result.timed_out &&
         !result.stopped_early && !result.cancelled && !result.yielded;
}

Status ValidateCoordinatedQuery(const QueryRequest& query) {
  if (query.algo == QueryAlgo::kFp) {
    return Status::InvalidArgument(
        "the fp baseline does not support seed ranges (pick another algo)");
  }
  if (query.max_results > 0) {
    return Status::InvalidArgument(
        "max-results does not compose with a coordinated mine: each worker "
        "would stop after the cap within its own shard, so the merged total "
        "would depend on the shard split. Coordinated mines are count-exact; "
        "run a single-process mine for a truncated answer");
  }
  if (query.collect_bodies || query.chunk_size > 0) {
    return Status::InvalidArgument(
        "results=stream does not compose with a coordinated mine: shards "
        "return mergeable summaries (count + fingerprint), not plex bodies. "
        "Stream from a single worker instead");
  }
  if (query.HasFilter() || query.top_k > 0) {
    return Status::InvalidArgument(
        "server-side selection (filter/contain/top) does not compose with a "
        "coordinated mine: the merge algebra is exact only over the full "
        "result set of each shard");
  }
  if (query.maximum) {
    return Status::InvalidArgument(
        "mode=maximum does not compose with a coordinated mine: the maximum "
        "search is not seed-range partitionable. Run it against one worker");
  }
  if (query.has_cursor) {
    return Status::InvalidArgument(
        "cursor resume does not compose with a coordinated mine: cursors "
        "describe a sequential single-process enumeration order");
  }
  return Status::Ok();
}

StatusOr<uint64_t> Coordinator::AddWorker(const std::string& endpoint) {
  std::string host;
  uint16_t port = 0;
  KPLEX_RETURN_IF_ERROR(SplitEndpoint(endpoint, &host, &port));
  const uint64_t id = pool_.Register(endpoint);
  CoordWorkersJoinedTotal().Increment();
  // A registration during a running job joins it immediately: the new
  // lane pops queued chunks and participates in stealing like any
  // other.
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<JobRun> run = active_run_;
  if (run != nullptr) {
    std::lock_guard<std::mutex> run_lock(run->mutex);
    if (!run->finished && !run->failed && !run->HasLaneLocked(id)) {
      ++run->active_lanes;
      run->laned_workers.push_back(id);
      run->lane_threads.emplace_back(
          [this, run, id, endpoint] { LaneMain(run, id, endpoint); });
    }
  }
  return id;
}

Status Coordinator::Heartbeat(uint64_t worker) {
  return pool_.Heartbeat(worker);
}

Status Coordinator::Drain(uint64_t worker) { return pool_.Drain(worker); }

std::vector<WorkerRecord> Coordinator::Workers() const {
  return pool_.Snapshot();
}

StatusOr<uint64_t> Coordinator::Submit(const QueryRequest& query) {
  KPLEX_RETURN_IF_ERROR(ValidateCoordinatedQuery(query));
  if (query.HasSeedRange()) {
    return Status::InvalidArgument(
        "a coordinated mine owns the seed split; submit the query without "
        "a seed range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::FailedPrecondition("the coordinator is stopping");
  }
  auto job = std::make_unique<CoordJobInfo>();
  job->id = next_job_id_++;
  job->query = query;
  job->query.cancel = nullptr;
  job->query.yield = nullptr;
  job->state = "queued";
  const uint64_t id = job->id;
  jobs_.push_back(std::move(job));
  cv_.notify_all();
  return id;
}

StatusOr<CoordJobInfo> Coordinator::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  CoordJobInfo* job = nullptr;
  for (auto& candidate : jobs_) {
    if (candidate->id == id) {
      job = candidate.get();
      break;
    }
  }
  if (job == nullptr) {
    return Status::NotFound("unknown job " + std::to_string(id));
  }
  cv_.wait(lock,
           [job] { return job->state == "done" || job->state == "failed"; });
  return *job;
}

std::vector<CoordJobInfo> Coordinator::Jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CoordJobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(*job);
  return out;
}

void Coordinator::Stop() {
  std::thread scheduler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !scheduler_.joinable()) return;
    stopping_ = true;
    if (active_run_ != nullptr) {
      std::lock_guard<std::mutex> run_lock(active_run_->mutex);
      active_run_->FailLocked(
          Status::FailedPrecondition("the coordinator is stopping"));
    }
    // Queued jobs will never run; fail them so waiters unblock.
    for (auto& job : jobs_) {
      if (job->state == "queued") {
        job->state = "failed";
        job->status =
            Status::FailedPrecondition("the coordinator is stopping");
      }
    }
    scheduler.swap(scheduler_);
    cv_.notify_all();
  }
  if (scheduler.joinable()) scheduler.join();
}

void Coordinator::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    CoordJobInfo* job = nullptr;
    cv_.wait(lock, [this, &job] {
      if (stopping_) return true;
      for (auto& candidate : jobs_) {
        if (candidate->state == "queued") {
          job = candidate.get();
          return true;
        }
      }
      return false;
    });
    if (stopping_ || job == nullptr) break;
    job->state = "running";
    auto run = std::make_shared<JobRun>();
    run->options = options_;
    run->query = job->query;
    run->trace_id = NextTraceId();
    active_run_ = run;
    lock.unlock();
    RunJob(*job, run);
    lock.lock();
    active_run_.reset();
    cv_.notify_all();
  }
}

void Coordinator::RunJob(CoordJobInfo& job, const std::shared_ptr<JobRun>& run) {
  WallTimer timer;
  auto finish_failed = [this, &job, &timer](Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = "failed";
    job.status = std::move(status);
    job.seconds = timer.ElapsedSeconds();
    cv_.notify_all();
  };

  // Planning probe: first reachable schedulable worker answers; a
  // worker verdict (unknown graph, bad options) is deterministic and
  // fails the job. Mismatched snapshots among the *other* workers are
  // caught per-chunk by the shardsubmit admission hash.
  std::vector<WorkerRecord> workers = pool_.Schedulable();
  if (workers.empty()) {
    finish_failed(Status::FailedPrecondition(
        "no schedulable worker (register at least one `serve --listen` "
        "endpoint)"));
    return;
  }
  Reply<Probe> reply;
  for (const WorkerRecord& worker : workers) {
    reply = ProbeWorker(worker.endpoint, run->query,
                        options_.io_timeout_seconds);
    if (!reply.transport_failed) break;
    pool_.MarkDead(worker.id);
    CoordWorkersLeftTotal().Increment();
  }
  if (reply.transport_failed) {
    finish_failed(Status::IoError(
        "the planning probe failed on every schedulable worker (last: " +
        reply.payload.status().ToString() + ")"));
    return;
  }
  if (!reply.payload.ok()) {
    finish_failed(reply.payload.status());
    return;
  }
  const Probe& probe = *reply.payload;
  run->content_hash = probe.content_hash;
  run->total_seeds = probe.total_seeds;

  workers = pool_.Schedulable();  // minus any the probe killed
  const uint32_t target_chunks =
      std::max<uint32_t>(1, options_.chunks_per_worker) *
      std::max<std::size_t>(1, workers.size());
  const std::vector<CoordChunk> chunks =
      PlanCostChunks(probe.costs, target_chunks);

  {
    std::unique_lock<std::mutex> lock(run->mutex);
    for (const CoordChunk& chunk : chunks) {
      run->queue.push_back({chunk.begin, chunk.end});
    }
    // Spawn one lane per schedulable worker (an empty seed space skips
    // straight to the empty merge below).
    if (!run->queue.empty()) {
      for (const WorkerRecord& worker : workers) {
        if (run->HasLaneLocked(worker.id)) continue;
        ++run->active_lanes;
        run->laned_workers.push_back(worker.id);
        auto self = run;
        run->lane_threads.emplace_back(
            [this, self, id = worker.id, endpoint = worker.endpoint] {
              LaneMain(self, id, endpoint);
            });
      }
    }

    // Completion wait: all chunks merged, the job failed, or every
    // lane died with work left (requeues with nobody to serve them).
    for (;;) {
      if (run->failed) break;
      if (run->queue.empty() && run->in_flight.empty()) break;
      if (run->active_lanes == 0) {
        uint64_t unfinished = 0;
        for (const auto& pending : run->queue) {
          unfinished += pending.end - pending.begin;
        }
        run->FailLocked(Status::IoError(
            "every worker lane exited with " + std::to_string(unfinished) +
            " seed(s) still unassigned; register a live worker and retry"));
        break;
      }
      run->cv.wait(lock);
    }
    run->finished = true;
    run->cv.notify_all();
  }

  // Join every lane (including late joiners). New lanes cannot appear
  // past this point: AddWorker checks run->finished under run->mutex.
  std::vector<std::thread> lanes;
  {
    std::lock_guard<std::mutex> lock(run->mutex);
    lanes.swap(run->lane_threads);
  }
  for (std::thread& lane : lanes) {
    if (lane.joinable()) lane.join();
  }

  // Collect the outcome under run->mutex, then publish under mutex_.
  // Never hold both: Stop() and AddWorker() take mutex_ before
  // run->mutex, so the reverse order here would deadlock.
  bool run_failed = false;
  Status run_failure;
  bool exact = true;
  uint64_t cursor = 0;
  uint64_t total_seeds = 0;
  {
    std::lock_guard<std::mutex> run_lock(run->mutex);
    run_failed = run->failed;
    run_failure = run->failure;
    total_seeds = run->total_seeds;
    if (!run_failed) {
      // Coverage assertion: the merged spans must partition exactly
      // [0, total_seeds) — anything else means the merge algebra was
      // fed a hole or an overlap and the fingerprint would be silently
      // wrong.
      std::sort(run->covered.begin(), run->covered.end());
      for (const auto& span : run->covered) {
        if (span.first != cursor) {
          exact = false;
          break;
        }
        cursor = span.second;
      }
      if (cursor != total_seeds) exact = false;
    }
  }
  if (run_failed) {
    finish_failed(run_failure);
    return;
  }
  if (!exact) {
    finish_failed(Status::Internal(
        "merged chunk ranges do not partition the seed space (covered " +
        std::to_string(cursor) + " of " + std::to_string(total_seeds) +
        " seeds)"));
    return;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  job.state = "done";
  job.status = Status::Ok();
  job.num_plexes = run->merged.count;
  job.max_plex_size = run->merged.max_plex_size;
  job.fingerprint = run->merged.fingerprint();
  job.fingerprint_xor = run->merged.xor_hash;
  job.content_hash = run->content_hash;
  job.total_seeds = run->total_seeds;
  job.chunks = run->chunk_count;
  job.steals = run->steals;
  job.requeues = run->requeues;
  job.outcomes = std::move(run->outcomes);
  job.seconds = timer.ElapsedSeconds();
  cv_.notify_all();
}

void Coordinator::LaneMain(const std::shared_ptr<JobRun>& run,
                           uint64_t worker_id, std::string endpoint) {
  TcpClient client;
  Status connected =
      ConnectFramed(client, endpoint, run->options.io_timeout_seconds,
                    kProtocolVersionCoordination, "coordination");
  std::unique_lock<std::mutex> lock(run->mutex);
  if (!connected.ok()) {
    pool_.MarkDead(worker_id);
    CoordWorkersLeftTotal().Increment();
    --run->active_lanes;
    run->laned_workers.erase(std::remove(run->laned_workers.begin(),
                                         run->laned_workers.end(), worker_id),
                             run->laned_workers.end());
    run->cv.notify_all();
    return;
  }
  run->lane_clients.push_back(&client);
  if (run->failed) client.Shutdown();  // aborted while we connected

  bool lane_alive = true;
  bool left_via_drain = false;
  while (lane_alive) {
    if (run->failed || run->finished) break;
    auto record = pool_.Get(worker_id);
    if (!record.ok() || record->state == WorkerState::kDraining ||
        record->state == WorkerState::kDead) {
      left_via_drain = record.ok() &&
                       record->state == WorkerState::kDraining;
      break;
    }
    if (!run->queue.empty()) {
      JobRun::PendingChunk chunk = run->queue.front();
      run->queue.pop_front();
      const uint64_t ticket = run->next_ticket++;
      JobRun::InFlight flight;
      flight.begin = chunk.begin;
      flight.end = chunk.end;
      flight.worker_id = worker_id;
      flight.endpoint = endpoint;
      flight.started_nanos = WallTimer::NowNanos();
      flight.steal_min_nanos = chunk.steal_min_nanos;
      run->in_flight.emplace(ticket, flight);
      pool_.MarkBusy(worker_id);

      // ---- chunk round trip (unlocked) -------------------------------
      lock.unlock();
      Request request;
      request.id = ticket;
      ShardSubmitRequest submit{run->query, run->content_hash};
      submit.query.seed_begin = chunk.begin;
      submit.query.seed_end = chunk.end;
      request.payload = std::move(submit);
      auto submitted = Call<ShardSubmitResponse>(client, request);
      lock.lock();

      if (!submitted.payload.ok()) {
        run->in_flight.erase(ticket);
        pool_.NoteChunkFailed(worker_id);
        if (!submitted.transport_failed &&
            submitted.payload.status().code() !=
                StatusCode::kFailedPrecondition) {
          // A deterministic verdict (bad options, unknown graph): it
          // would repeat on every worker. Abort the job.
          run->FailLocked(submitted.payload.status());
          break;
        }
        // Transport failure (the worker died) or an admission refusal
        // (this worker holds different graph bytes): requeue the chunk
        // for the surviving, matching lanes and retire this one.
        ++run->requeues;
        CoordRequeuesTotal().Increment();
        run->queue.push_back(chunk);
        pool_.MarkDead(worker_id);
        CoordWorkersLeftTotal().Increment();
        run->cv.notify_all();
        lane_alive = false;
        break;
      }
      const uint64_t remote_job = submitted.payload->job;
      {
        auto it = run->in_flight.find(ticket);
        if (it != run->in_flight.end()) it->second.remote_job = remote_job;
        run->cv.notify_all();  // stealers wait for remote_job
      }
      if (run->failed) break;

      lock.unlock();
      request.payload = ShardWaitRequest{remote_job};
      WallTimer chunk_timer;
      auto shard = Call<ShardResultResponse>(client, request);
      const double chunk_seconds = chunk_timer.ElapsedSeconds();
      if (shard.payload.ok()) {
        RecordSpan(run->trace_id, "coord_chunk", chunk_seconds,
                   &CoordChunkSeconds(),
                   {{"range", std::to_string(chunk.begin) + ":" +
                                  std::to_string(chunk.end)},
                    {"endpoint", endpoint}});
      }
      lock.lock();

      run->in_flight.erase(ticket);
      if (run->failed) break;
      if (shard.transport_failed) {
        // The worker vanished mid-chunk; its result never merged, so
        // re-running the whole range elsewhere stays exact.
        ++run->requeues;
        CoordRequeuesTotal().Increment();
        run->queue.push_back(chunk);
        pool_.NoteChunkFailed(worker_id);
        pool_.MarkDead(worker_id);
        CoordWorkersLeftTotal().Increment();
        run->cv.notify_all();
        lane_alive = false;
        break;
      }
      if (!shard.payload.ok()) {
        pool_.NoteChunkFailed(worker_id);
        run->FailLocked(shard.payload.status());
        break;
      }
      const JobInfo& job = shard.payload->job;
      const QueryResult& result = job.result;
      if (result.yielded) {
        // A stolen chunk: the prefix [begin, covered_end) is complete
        // and merges; the tail goes back on the queue for the stealer.
        if (result.covered_begin != chunk.begin ||
            result.covered_end > chunk.end) {
          run->FailLocked(Status::Internal(
              "yielded shard covered " +
              std::to_string(result.covered_begin) + ":" +
              std::to_string(result.covered_end) +
              " outside its assigned range " +
              std::to_string(chunk.begin) + ":" +
              std::to_string(chunk.end)));
          break;
        }
        const uint32_t split = result.covered_end;
        if (split > chunk.begin) {
          run->MergeLocked(chunk.begin, split, endpoint, result,
                           /*yielded=*/true);
          ++run->steals;
          CoordStealsTotal().Increment();
          pool_.NoteChunkDone(worker_id);
        }
        if (split == chunk.begin) {
          chunk.steal_min_nanos =
              std::max(2 * chunk.steal_min_nanos,
                       WallTimer::NowNanos() - flight.started_nanos);
        }
        if (split < chunk.end) {
          run->queue.push_back({split, chunk.end, chunk.steal_min_nanos});
        }
        pool_.MarkIdle(worker_id);
        run->cv.notify_all();
        continue;
      }
      if (!ShardIsComplete(job)) {
        std::string how = JobStateName(job.state);
        if (result.timed_out) how += ", time limit hit";
        if (result.stopped_early) how += ", result cap hit";
        if (result.cancelled && job.state == JobState::kDone) {
          how += ", cancelled";
        }
        pool_.NoteChunkFailed(worker_id);
        run->FailLocked(Status::FailedPrecondition(
            "chunk " + std::to_string(chunk.begin) + ":" +
            std::to_string(chunk.end) + " on " + endpoint +
            " is not a complete answer (" + how + ")"));
        break;
      }
      run->MergeLocked(chunk.begin, chunk.end, endpoint, result,
                       /*yielded=*/false);
      pool_.NoteChunkDone(worker_id);
      pool_.MarkIdle(worker_id);
      run->cv.notify_all();
      continue;
    }
    if (run->in_flight.empty()) break;  // job drained; RunJob finishes it

    // Queue empty, chunks still running: steal from the
    // longest-running un-stolen chunk so its tail lands back on the
    // queue for this idle lane.
    uint64_t victim_ticket = 0;
    const JobRun::InFlight* victim = nullptr;
    const int64_t now = WallTimer::NowNanos();
    const int64_t min_age =
        static_cast<int64_t>(run->options.steal_min_seconds * 1e9);
    for (const auto& [ticket, flight] : run->in_flight) {
      if (flight.remote_job == 0 || flight.steal_requested) continue;
      if (now - flight.started_nanos <
          std::max(min_age, flight.steal_min_nanos)) {
        continue;
      }
      if (victim == nullptr || flight.started_nanos < victim->started_nanos) {
        victim = &flight;
        victim_ticket = ticket;
      }
    }
    if (victim != nullptr) {
      run->in_flight[victim_ticket].steal_requested = true;
      const std::string victim_endpoint = victim->endpoint;
      const uint64_t victim_job = victim->remote_job;
      lock.unlock();
      Status stopped = SendShardStop(victim_endpoint, victim_job,
                                     run->options.io_timeout_seconds);
      lock.lock();
      if (!stopped.ok()) {
        // The victim may have finished or died; either way its lane
        // settles the chunk. Allow future steal attempts on it.
        auto it = run->in_flight.find(victim_ticket);
        if (it != run->in_flight.end()) {
          it->second.steal_requested = false;
        }
      }
      continue;
    }
    run->cv.wait_for(lock, std::chrono::milliseconds(20));
  }

  if (left_via_drain) CoordWorkersLeftTotal().Increment();
  run->lane_clients.erase(std::remove(run->lane_clients.begin(),
                                      run->lane_clients.end(), &client),
                          run->lane_clients.end());
  run->laned_workers.erase(std::remove(run->laned_workers.begin(),
                                       run->laned_workers.end(), worker_id),
                           run->laned_workers.end());
  --run->active_lanes;
  run->cv.notify_all();
}

}  // namespace kplex
