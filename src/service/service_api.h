// ServiceApi: the execution facade of the query service. One ServiceApi
// owns the long-lived service state — a GraphCatalog, a QueryEngine,
// and a ServiceDispatcher — and executes typed protocol requests
// (service/protocol.h) against it, returning typed responses. Every
// front end is a thin adapter over this class: ServiceSession parses
// the text/framed wire into Requests and formats the Responses back;
// the TCP server runs one such adapter per connection over a *shared*
// ServiceApi, which is what makes graphs, cached results, and the job
// queue visible to every client of one serve process.
//
// Error contract: Execute never throws and never returns free-form
// text. Failures come back as ErrorResponse carrying a structured
// Status whose message has been scrubbed of absolute filesystem paths
// (SanitizeErrorStatus) — a network client learns what went wrong, not
// how the server's disk is laid out.
//
// Thread-safety: Execute may be called from any number of threads
// concurrently (the TCP server does); all state it touches lives in
// the thread-safe catalog/engine/dispatcher underneath.

#ifndef KPLEX_SERVICE_SERVICE_API_H_
#define KPLEX_SERVICE_SERVICE_API_H_

#include <cstdint>
#include <memory>
#include <string>

#include "service/dispatcher.h"
#include "service/graph_catalog.h"
#include "service/protocol.h"
#include "service/query_engine.h"
#include "store/result_store.h"

namespace kplex {

struct ServiceApiOptions {
  /// Catalog memory budget in bytes (0 = unlimited).
  std::size_t memory_budget_bytes = 0;
  /// Result-cache capacity in entries (0 disables caching).
  std::size_t result_cache_capacity = 64;
  /// Dispatcher worker threads. 1 (the default) preserves serial query
  /// semantics; N > 1 lets submitted jobs run concurrently over the
  /// shared catalog. 0 is clamped to 1.
  uint32_t workers = 1;
  /// Durable result-store directory (`serve --store DIR`). Empty
  /// disables the disk tier. See store/result_store.h.
  std::string store_dir;
  /// Result-store LRU byte budget (0 = unlimited).
  uint64_t store_byte_budget = 0;
};

class ServiceApi {
 public:
  explicit ServiceApi(ServiceApiOptions options = {});

  ServiceApi(const ServiceApi&) = delete;
  ServiceApi& operator=(const ServiceApi&) = delete;

  /// Executes one typed request. The response mirrors the request id;
  /// failures come back as ErrorResponse (sanitized Status), never an
  /// exception.
  Response Execute(const Request& request);

  /// Cancels every queued/running dispatcher job (server shutdown).
  void CancelAllJobs();

  /// The hello answer of any endpoint: the negotiated version
  /// min(N, kProtocolVersion), or INVALID_ARGUMENT for version 0, whose
  /// message names the `endpoint` ("server", "daemon").
  static ResponsePayload AnswerHello(const HelloRequest& hello,
                                     const char* endpoint);

  /// A scrape of the process-wide metrics registry; INVALID_ARGUMENT for
  /// a format other than table or prom.
  static ResponsePayload AnswerMetrics(const MetricsRequest& metrics);

  GraphCatalog& catalog() { return catalog_; }
  QueryEngine& engine() { return engine_; }
  ServiceDispatcher& dispatcher() { return *dispatcher_; }
  /// The durable result store, or nullptr when no store_dir was given
  /// (or it failed to open — see store_status()).
  ResultStore* store() { return store_.get(); }
  /// Outcome of opening options.store_dir: Ok when the store is up (or
  /// none was requested), the open error otherwise. The ServiceApi
  /// itself keeps running without a disk tier on failure; callers that
  /// treat a broken store as fatal (kplex_cli serve) check this after
  /// construction.
  const Status& store_status() const { return store_status_; }

 private:
  ResponsePayload Handle(const HelloRequest& hello);
  ResponsePayload Handle(const LoadRequest& load);
  ResponsePayload Handle(const DatasetRequest& dataset);
  ResponsePayload Handle(const SnapshotRequest& snapshot);
  ResponsePayload Handle(const MineRequest& mine);
  ResponsePayload Handle(const SubmitRequest& submit);
  ResponsePayload Handle(const PlanRequest& plan);
  ResponsePayload Handle(const ShardSubmitRequest& shard);
  ResponsePayload Handle(const ShardWaitRequest& wait);
  ResponsePayload Handle(const ShardStopRequest& stop);
  ResponsePayload Handle(const RegisterRequest&);
  ResponsePayload Handle(const HeartbeatRequest&);
  ResponsePayload Handle(const DrainRequest&);
  ResponsePayload Handle(const WorkersRequest&);
  ResponsePayload Handle(const CancelRequest& cancel);
  ResponsePayload Handle(const JobsRequest&);
  ResponsePayload Handle(const WaitRequest& wait);
  ResponsePayload Handle(const StatsRequest&);
  ResponsePayload Handle(const MetricsRequest& metrics);
  ResponsePayload Handle(const EvictRequest& evict);
  ResponsePayload Handle(const StoreRequest& store);
  ResponsePayload Handle(const HelpRequest&);
  ResponsePayload Handle(const QuitRequest&);

  /// The stats/store view of store_ (enabled=false when detached).
  StoreStatusInfo StoreInfo();

  // Declared before the engine so the engine's raw store pointer can
  // never dangle: members destroy in reverse order, and the dispatcher
  // (whose workers are the only concurrent callers) is torn down first.
  std::unique_ptr<ResultStore> store_;
  Status store_status_ = Status::Ok();
  GraphCatalog catalog_;
  QueryEngine engine_;
  // Pointer so the members above (which the dispatcher's workers reach
  // through the engine) are fully constructed before any worker starts;
  // the declaration order here is the destruction-order guarantee.
  std::unique_ptr<ServiceDispatcher> dispatcher_;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_SERVICE_API_H_
