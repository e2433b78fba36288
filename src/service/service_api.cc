#include "service/service_api.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "core/seed_plan.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace kplex {

ServiceApi::ServiceApi(ServiceApiOptions options)
    : catalog_(options.memory_budget_bytes),
      engine_(catalog_, options.result_cache_capacity) {
  if (!options.store_dir.empty()) {
    StoreOptions store_options;
    store_options.directory = options.store_dir;
    store_options.byte_budget = options.store_byte_budget;
    auto opened = ResultStore::Open(std::move(store_options));
    if (opened.ok()) {
      store_ = std::move(*opened);
      engine_.AttachStore(store_.get());
    } else {
      store_status_ = opened.status();
    }
  }
  DispatcherOptions dispatch;
  dispatch.workers = options.workers == 0 ? 1 : options.workers;
  dispatcher_ = std::make_unique<ServiceDispatcher>(engine_, dispatch);
}

namespace {

void SanitizeJob(JobInfo& job) {
  if (job.state == JobState::kFailed) {
    job.status = SanitizeErrorStatus(job.status);
  }
}

}  // namespace

Response ServiceApi::Execute(const Request& request) {
  // Execute is the one chokepoint every front end funnels through, so
  // the per-verb request counters and latency histograms live here —
  // stdin sessions, TCP connections, and shard workers all count.
  const char* verb = RequestVerbName(request.payload);
  MetricsRegistry::Global()
      .GetCounter(std::string("kplex_requests_") + verb + "_total")
      .Increment();
  Histogram& verb_latency = MetricsRegistry::Global().GetHistogram(
      std::string("kplex_request_") + verb + "_seconds");
  WallTimer timer;

  Response response;
  response.request_id = request.id;
  response.payload = std::visit(
      [this](const auto& payload) { return Handle(payload); },
      request.payload);
  verb_latency.Observe(timer.ElapsedSeconds());
  if (std::holds_alternative<ErrorResponse>(response.payload)) {
    MetricsRegistry::Global()
        .GetCounter("kplex_requests_failed_total")
        .Increment();
  }
  // One sanitation chokepoint: whatever layer produced a Status — a
  // direct command failure or a failed job's stored error — the
  // message a client sees never carries absolute host paths.
  if (auto* error = std::get_if<ErrorResponse>(&response.payload)) {
    error->status = SanitizeErrorStatus(error->status);
  } else if (auto* mine = std::get_if<MineResponse>(&response.payload)) {
    SanitizeJob(mine->job);
  } else if (auto* shard =
                 std::get_if<ShardResultResponse>(&response.payload)) {
    SanitizeJob(shard->job);
  } else if (auto* wait = std::get_if<WaitResponse>(&response.payload)) {
    SanitizeJob(wait->job);
  } else if (auto* jobs = std::get_if<JobsResponse>(&response.payload)) {
    for (JobInfo& job : jobs->jobs) SanitizeJob(job);
  }
  return response;
}

void ServiceApi::CancelAllJobs() {
  for (const JobInfo& info : dispatcher_->Jobs()) {
    if (info.state == JobState::kQueued || info.state == JobState::kRunning) {
      (void)dispatcher_->Cancel(info.id);  // lost races are fine
    }
  }
}

ResponsePayload ServiceApi::AnswerHello(const HelloRequest& hello,
                                        const char* endpoint) {
  if (hello.version == 0) {
    return ErrorResponse{Status::InvalidArgument(
        std::string("unsupported protocol version 0 (this ") + endpoint +
        " speaks 1.." + std::to_string(kProtocolVersion) + ")")};
  }
  HelloResponse response;
  response.version = std::min(hello.version, kProtocolVersion);
  response.mode = hello.mode;
  return response;
}

ResponsePayload ServiceApi::Handle(const HelloRequest& hello) {
  return AnswerHello(hello, "server");
}

ResponsePayload ServiceApi::Handle(const LoadRequest& load) {
  Status registered = catalog_.RegisterFile(load.name, load.path);
  if (!registered.ok()) return ErrorResponse{registered};
  auto graph = catalog_.Get(load.name);  // materialize eagerly
  if (!graph.ok()) {
    // A failed load must not leave a half-registered entry behind.
    catalog_.Unregister(load.name);
    return ErrorResponse{graph.status()};
  }
  LoadResponse response;
  response.name = load.name;
  response.num_vertices = (*graph)->NumVertices();
  response.num_edges = (*graph)->NumEdges();
  for (const auto& info : catalog_.Entries()) {
    if (info.name == load.name) {
      response.load_seconds = info.last_load_seconds;
    }
  }
  return response;
}

ResponsePayload ServiceApi::Handle(const DatasetRequest& dataset) {
  Status registered = catalog_.RegisterDataset(dataset.name, dataset.key);
  if (!registered.ok()) return ErrorResponse{registered};
  auto graph = catalog_.Get(dataset.name);
  if (!graph.ok()) {
    catalog_.Unregister(dataset.name);
    return ErrorResponse{graph.status()};
  }
  LoadResponse response;
  response.name = dataset.name;
  response.num_vertices = (*graph)->NumVertices();
  response.num_edges = (*graph)->NumEdges();
  response.dataset_key = dataset.key;
  return response;
}

ResponsePayload ServiceApi::Handle(const SnapshotRequest& snapshot) {
  SnapshotWriteOptions options;
  options.include_precompute = snapshot.include_precompute;
  options.core_mask_levels = snapshot.core_mask_levels;
  Status saved = catalog_.SaveSnapshotFor(snapshot.name, snapshot.path,
                                          options);
  if (!saved.ok()) return ErrorResponse{saved};
  SnapshotResponse response;
  response.name = snapshot.name;
  response.path = snapshot.path;
  response.with_precompute = options.include_precompute;
  return response;
}

ResponsePayload ServiceApi::Handle(const MineRequest& mine) {
  // Synchronous mine is submit-and-wait on the shared dispatcher: one
  // execution path for every query, and byte-identical output to the
  // historical serial session.
  auto id = dispatcher_->Submit(mine.query);
  if (!id.ok()) return ErrorResponse{id.status()};
  auto info = dispatcher_->Wait(*id);
  if (!info.ok()) return ErrorResponse{info.status()};
  return MineResponse{*std::move(info)};
}

ResponsePayload ServiceApi::Handle(const PlanRequest& plan) {
  auto resolved = catalog_.GetWithSections(plan.graph);
  if (!resolved.ok()) return ErrorResponse{resolved.status()};
  auto hash = catalog_.ContentHash(plan.graph);
  if (!hash.ok()) return ErrorResponse{hash.status()};
  EnumOptions options = EnumOptions::Ours(plan.k, plan.q);
  options.precompute = resolved->precompute.get();
  auto computed = ComputeSeedPlan(*resolved->graph, options);
  if (!computed.ok()) return ErrorResponse{computed.status()};
  PlanResponse response;
  response.graph = plan.graph;
  response.total_seeds = computed->total_seeds;
  response.content_hash = *hash;
  response.degeneracy = computed->degeneracy;
  response.degrees = std::move(computed->degrees);
  response.coreness = std::move(computed->coreness);
  response.precomputed =
      computed->core_precomputed && computed->order_precomputed;
  response.seconds = computed->seconds;
  return response;
}

ResponsePayload ServiceApi::Handle(const ShardSubmitRequest& shard) {
  // Shard admission: before any work, prove this worker holds the same
  // graph bytes the coordinator planned against. The error carries both
  // hashes so a mismatched-snapshot refusal is diagnosable from logs.
  auto hash = catalog_.ContentHash(shard.query.graph);
  if (!hash.ok()) return ErrorResponse{hash.status()};
  if (shard.expected_hash != 0 && *hash != shard.expected_hash) {
    char expected[24], actual[24];
    std::snprintf(expected, sizeof(expected), "0x%016llx",
                  static_cast<unsigned long long>(shard.expected_hash));
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  static_cast<unsigned long long>(*hash));
    return ErrorResponse{Status::FailedPrecondition(
        "graph content hash mismatch for '" + shard.query.graph +
        "': coordinator expected " + expected + ", this worker has " +
        std::string(actual) + " (mismatched snapshot?)")};
  }
  // Same execution path as a mine: submit on the shared dispatcher, so
  // shard jobs are cancellable and visible in `jobs` like any other
  // work; `shardwait` delivers the result.
  auto id = dispatcher_->Submit(shard.query);
  if (!id.ok()) return ErrorResponse{id.status()};
  return ShardSubmitResponse{*id, *hash};
}

ResponsePayload ServiceApi::Handle(const ShardWaitRequest& wait) {
  auto info = dispatcher_->Wait(wait.job);
  if (!info.ok()) return ErrorResponse{info.status()};
  // The job's graph may have been evicted since submission; a zero hash
  // just means "unverifiable now" — the shardsubmit ack already carried
  // the verified one.
  auto hash = catalog_.ContentHash(info->request.graph);
  return ShardResultResponse{*std::move(info), hash.ok() ? *hash : 0};
}

ResponsePayload ServiceApi::Handle(const ShardStopRequest& stop) {
  Status yielded = dispatcher_->Yield(stop.job);
  if (!yielded.ok()) return ErrorResponse{yielded};
  return ShardStopResponse{stop.job};
}

namespace {

ResponsePayload CoordinatorOnlyVerb(const char* verb) {
  return ErrorResponse{Status::InvalidArgument(
      std::string("'") + verb +
      "' is a coordinator verb; this endpoint is a worker (connect to "
      "the coordinator daemon instead)")};
}

}  // namespace

ResponsePayload ServiceApi::Handle(const RegisterRequest&) {
  return CoordinatorOnlyVerb("register");
}

ResponsePayload ServiceApi::Handle(const HeartbeatRequest&) {
  return CoordinatorOnlyVerb("heartbeat");
}

ResponsePayload ServiceApi::Handle(const DrainRequest&) {
  return CoordinatorOnlyVerb("drain");
}

ResponsePayload ServiceApi::Handle(const WorkersRequest&) {
  return CoordinatorOnlyVerb("workers");
}

ResponsePayload ServiceApi::Handle(const SubmitRequest& submit) {
  auto id = dispatcher_->Submit(submit.query);
  if (!id.ok()) return ErrorResponse{id.status()};
  SubmitResponse response;
  response.job = *id;
  response.query = submit.query;
  return response;
}

ResponsePayload ServiceApi::Handle(const CancelRequest& cancel) {
  Status cancelled = dispatcher_->Cancel(cancel.job);
  if (!cancelled.ok()) return ErrorResponse{cancelled};
  return CancelResponse{cancel.job};
}

ResponsePayload ServiceApi::Handle(const JobsRequest&) {
  return JobsResponse{dispatcher_->Jobs()};
}

ResponsePayload ServiceApi::Handle(const WaitRequest& wait) {
  if (wait.job.has_value()) {
    auto info = dispatcher_->Wait(*wait.job);
    if (!info.ok()) return ErrorResponse{info.status()};
    return WaitResponse{*std::move(info)};
  }
  dispatcher_->Drain();
  WaitAllResponse response;
  response.counts = dispatcher_->Counts();
  for (const JobInfo& info : dispatcher_->Jobs()) {
    if (info.state == JobState::kFailed) {
      response.failed_jobs.push_back(info.id);
    }
  }
  return response;
}

ResponsePayload ServiceApi::Handle(const StatsRequest&) {
  StatsResponse response;
  response.graphs = catalog_.Entries();
  response.resident_bytes = catalog_.ResidentBytes();
  response.mapped_resident_bytes = catalog_.MappedResidentBytes();
  response.memory_budget_bytes = catalog_.MemoryBudgetBytes();
  response.cache = engine_.cache_stats();
  response.jobs = dispatcher_->Counts();
  response.workers = dispatcher_->num_workers();
  response.store = StoreInfo();
  return response;
}

StoreStatusInfo ServiceApi::StoreInfo() {
  StoreStatusInfo info;
  if (store_ == nullptr) return info;
  const ResultStore::Stats stats = store_->stats();
  info.enabled = true;
  info.entries = stats.entries;
  info.bytes = stats.bytes;
  info.byte_budget = stats.byte_budget;
  info.hits = stats.hits;
  info.misses = stats.misses;
  info.writes = stats.writes;
  info.evictions = stats.evictions;
  info.corrupt_entries = stats.corrupt_entries;
  return info;
}

ResponsePayload ServiceApi::Handle(const StoreRequest& store) {
  if (store_ == nullptr) {
    return ErrorResponse{Status::FailedPrecondition(
        "no result store attached (start the server with --store DIR)")};
  }
  StoreResponse response;
  response.evicted = store.evict;
  if (store.evict) {
    const ResultStore::EvictOutcome outcome = store_->EvictAll();
    response.evicted_entries = outcome.entries;
    response.evicted_bytes = outcome.bytes;
  }
  response.info = StoreInfo();
  return response;
}

ResponsePayload ServiceApi::AnswerMetrics(const MetricsRequest& metrics) {
  if (!metrics.format.empty() && metrics.format != "table" &&
      metrics.format != "prom") {
    return ErrorResponse{Status::InvalidArgument(
        "unknown metrics format '" + metrics.format +
        "' (expected table or prom)")};
  }
  return MetricsResponse{metrics.format,
                         MetricsRegistry::Global().Snapshot()};
}

ResponsePayload ServiceApi::Handle(const MetricsRequest& metrics) {
  return AnswerMetrics(metrics);
}

ResponsePayload ServiceApi::Handle(const EvictRequest& evict) {
  Status evicted = catalog_.Evict(evict.name);
  if (!evicted.ok()) return ErrorResponse{evicted};
  return EvictResponse{evict.name};
}

ResponsePayload ServiceApi::Handle(const HelpRequest&) {
  return HelpResponse{};
}

ResponsePayload ServiceApi::Handle(const QuitRequest&) {
  return ByeResponse{};
}

}  // namespace kplex
