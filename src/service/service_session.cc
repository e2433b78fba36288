#include "service/service_session.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace kplex {
namespace {

Histogram& SerializeSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_session_serialize_seconds");
  return histogram;
}

// The session decomposes the logical mine verb into submit + wait
// before it reaches ServiceApi::Execute (the job id must be visible to
// the disconnect watcher between the two). Execute's per-verb
// accounting therefore only sees the transport verbs; the logical verb
// is counted here, at the decomposition point.
Counter& MineRequestsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_requests_mine_total");
  return counter;
}
Histogram& MineSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_request_mine_seconds");
  return histogram;
}
Counter& StreamChunksTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_chunks_total");
  return counter;
}
Counter& StreamPlexesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_plexes_total");
  return counter;
}
Counter& StreamBytesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_bytes_total");
  return counter;
}
Histogram& StreamWriteSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_session_stream_write_seconds");
  return histogram;
}

}  // namespace

ServiceSession::ServiceSession(std::ostream& out,
                               ServiceSessionOptions options)
    : out_(out), echo_(options.echo) {
  ServiceApiOptions api_options;
  api_options.memory_budget_bytes = options.memory_budget_bytes;
  api_options.result_cache_capacity = options.result_cache_capacity;
  api_options.workers = options.workers;
  api_ = std::make_shared<ServiceApi>(api_options);
}

ServiceSession::ServiceSession(std::ostream& out,
                               std::shared_ptr<ServiceApi> api, bool echo)
    : out_(out), echo_(echo), api_(std::move(api)) {}

void ServiceSession::Fail(const Status& status, uint64_t request_id) {
  ++errors_;
  WriteResponse({request_id, ErrorResponse{status}}, mode_, out_);
}

bool ServiceSession::ExecuteLine(const std::string& line) {
  uint64_t error_id = 0;
  auto request = ParseSessionLine(line, mode_, &error_id);
  if (!request.has_value()) return true;
  if (echo_ && mode_ == WireMode::kText) out_ << "> " << line << "\n";
  if (!request->ok()) {
    // A rejected frame still answers under the client's id when one
    // was readable, so pipelining clients never orphan the failure.
    Fail(request->status(), error_id);
    return true;
  }
  return Dispatch(**request);
}

bool ServiceSession::Dispatch(const Request& request) {
  if (EndsSessionSilently(request, mode_)) return false;
  Response response;
  if (const auto* mine = std::get_if<MineRequest>(&request.payload)) {
    response = ExecuteMine(request.id, *mine);
  } else {
    response = api_->Execute(request);
  }
  NoteResponse(response);
  mode_ = ModeAfter(response, mode_);
  // Streamed delivery: a results=stream mine's plex bodies travel as
  // bounded result_chunk frames ahead of the final verdict frame.
  // Backpressure is the transport's: each chunk is a blocking write, so
  // a slow client throttles this (the session's own) thread, never a
  // dispatcher worker.
  if (const auto* mine = std::get_if<MineRequest>(&request.payload)) {
    if (mine->query.collect_bodies) {
      if (const auto* outcome = std::get_if<MineResponse>(&response.payload);
          outcome != nullptr && outcome->job.result.plexes != nullptr) {
        EmitResultChunks(request.id, mine->query, outcome->job);
      }
    }
  }
  WallTimer serialize_timer;
  WriteResponse(response, mode_, out_);
  SerializeSeconds().Observe(serialize_timer.ElapsedSeconds());
  return !std::holds_alternative<ByeResponse>(response.payload);
}

void ServiceSession::EmitResultChunks(uint64_t request_id,
                                      const QueryRequest& query,
                                      const JobInfo& job) {
  const std::vector<std::vector<VertexId>>& plexes = *job.result.plexes;
  const uint32_t chunk_size =
      query.chunk_size > 0 ? query.chunk_size : kDefaultResultChunkSize;
  uint64_t seq = 0;
  std::size_t offset = 0;
  WallTimer timer;
  // An empty result still sends one empty last chunk, so a streaming
  // client always sees the chunk phase terminate explicitly.
  do {
    const std::size_t take =
        std::min<std::size_t>(chunk_size, plexes.size() - offset);
    ResultChunkResponse chunk;
    chunk.job = job.id;
    chunk.seq = seq++;
    chunk.plexes.assign(plexes.begin() + static_cast<std::ptrdiff_t>(offset),
                        plexes.begin() +
                            static_cast<std::ptrdiff_t>(offset + take));
    offset += take;
    chunk.last = offset == plexes.size();
    const uint64_t plex_count = chunk.plexes.size();
    std::ostringstream rendered;
    WriteResponse({request_id, std::move(chunk)}, mode_, rendered);
    const std::string bytes = rendered.str();
    out_ << bytes;
    StreamChunksTotal().Increment();
    StreamPlexesTotal().Increment(plex_count);
    StreamBytesTotal().Increment(bytes.size());
  } while (offset < plexes.size());
  StreamWriteSeconds().Observe(timer.ElapsedSeconds());
}

Response ServiceSession::ExecuteMine(uint64_t request_id,
                                     const MineRequest& mine) {
  MineRequestsTotal().Increment();
  WallTimer timer;
  Request submit;
  submit.id = request_id;
  submit.payload = SubmitRequest{mine.query};
  Response submitted = api_->Execute(submit);
  const auto* accepted = std::get_if<SubmitResponse>(&submitted.payload);
  if (accepted == nullptr) return submitted;  // ErrorResponse (queue full)
  RecordSubmittedJob(accepted->job);
  Request wait;
  wait.id = request_id;
  wait.payload = WaitRequest{accepted->job};
  Response waited = api_->Execute(wait);
  if (auto* outcome = std::get_if<WaitResponse>(&waited.payload)) {
    // Same terminal JobInfo, mine-shaped (no "job N: " prefix).
    waited.payload = MineResponse{std::move(outcome->job)};
  }
  MineSeconds().Observe(timer.ElapsedSeconds());
  return waited;
}

void ServiceSession::RecordSubmittedJob(uint64_t id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  submitted_jobs_.push_back(id);
}

void ServiceSession::NoteResponse(const Response& response) {
  if (std::holds_alternative<ErrorResponse>(response.payload)) {
    ++errors_;
    return;
  }
  if (const auto* submit = std::get_if<SubmitResponse>(&response.payload)) {
    RecordSubmittedJob(submit->job);
    return;
  }
  // A shardsubmit job belongs to this session the same way: a dropped
  // coordinator lane must not leave its shard running unattended.
  if (const auto* shard_submit =
          std::get_if<ShardSubmitResponse>(&response.payload)) {
    RecordSubmittedJob(shard_submit->job);
    return;
  }
  const JobInfo* job = nullptr;
  if (const auto* mine = std::get_if<MineResponse>(&response.payload)) {
    job = &mine->job;
  } else if (const auto* shard =
                 std::get_if<ShardResultResponse>(&response.payload)) {
    job = &shard->job;
  } else if (const auto* wait = std::get_if<WaitResponse>(&response.payload)) {
    job = &wait->job;
  }
  if (job != nullptr && job->state == JobState::kFailed &&
      counted_failed_jobs_.insert(job->id).second) {
    ++errors_;
    return;
  }
  if (const auto* all = std::get_if<WaitAllResponse>(&response.payload)) {
    for (uint64_t id : all->failed_jobs) {
      if (counted_failed_jobs_.insert(id).second) ++errors_;
    }
  }
}

uint64_t ServiceSession::RunScript(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!ExecuteLine(line)) break;
  }
  // Sweep failures of jobs nobody waited on: the batch exit code must
  // not depend on whether the script bothered to view results. Jobs
  // still running here are cancelled by the dispatcher destructor, not
  // counted as failures.
  CountTerminalFailures();
  return errors_;
}

void ServiceSession::CountTerminalFailures() {
  for (const JobInfo& info : api_->dispatcher().Jobs()) {
    if (info.state == JobState::kFailed &&
        counted_failed_jobs_.insert(info.id).second) {
      ++errors_;
    }
  }
}

void ServiceSession::CancelOutstandingJobs() {
  std::vector<uint64_t> jobs;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs = submitted_jobs_;
  }
  ServiceDispatcher& dispatcher = api_->dispatcher();
  for (uint64_t id : jobs) {
    auto info = dispatcher.GetJob(id);
    if (info.ok() && (info->state == JobState::kQueued ||
                      info->state == JobState::kRunning)) {
      (void)dispatcher.Cancel(id);  // lost races with completion are fine
    }
  }
}

}  // namespace kplex
