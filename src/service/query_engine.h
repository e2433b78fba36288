// QueryEngine: the request front end of the query service. A request
// names a catalog graph plus the enumeration parameters; the engine
// resolves the graph through the GraphCatalog, runs the request
// through ExecuteQuery (the sequential or parallel enumerator, a
// baseline driver, or the maximum-k-plex solver), and caches the
// outcome in an LRU result cache keyed by the canonical query
// signature. The signature covers exactly the parameters that determine
// the result *set* (graph, k, q, algo, max_results) — thread count and
// time limits only affect how fast the same answer is produced, so a
// warm repeat of a query returns instantly regardless of them. Runs
// that ended early (timeout or cancellation) produced a partial set and
// are never cached; a max_results-truncated run is cached only when it
// was sequential (parallel workers race for the cap, so their subset is
// not reproducible).
//
// Thread-safety: Run() may be called from any number of threads (the
// ServiceDispatcher's workers all share one engine). Cache bookkeeping
// is mutex-guarded, and identical concurrent queries are single-flight:
// the first caller executes, the others wait for its answer and serve
// it as a cache hit instead of stampeding the same enumeration N times.
// Single-flight holds even with caching disabled (cache_capacity 0) —
// the leader's answer travels through the in-flight latch, it just is
// not retained afterwards. A waiter whose own cancel flag flips while
// waiting unblocks promptly with a cancelled result. See
// docs/CONCURRENCY.md.

#ifndef KPLEX_SERVICE_QUERY_ENGINE_H_
#define KPLEX_SERVICE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/enumerator.h"
#include "service/graph_catalog.h"
#include "service/lru.h"
#include "util/status.h"

namespace kplex {

class ResultStore;

/// Algorithm selector mirroring `kplex_cli mine --algo`.
enum class QueryAlgo { kOurs, kOursP, kBasic, kListPlex, kFp };

/// Parses "ours", "ours_p", "basic", "listplex", "fp".
StatusOr<QueryAlgo> ParseQueryAlgo(const std::string& name);
const char* QueryAlgoName(QueryAlgo algo);

/// Largest worker count a query may ask for: the parallel engine
/// starts one thread, queue and counter per worker, so ValidateQuery
/// refuses larger counts before any of them exists.
inline constexpr uint32_t kMaxQueryThreads = 1024;

struct QueryRequest {
  std::string graph;  ///< catalog name
  uint32_t k = 2;
  uint32_t q = 4;
  QueryAlgo algo = QueryAlgo::kOurs;
  /// 0 runs the sequential engine; > 0 the parallel one with that many
  /// workers, at most kMaxQueryThreads. Ignored for the fp baseline
  /// (one worker only).
  uint32_t threads = 0;
  /// Straggler timeout for the parallel engine, milliseconds.
  double tau_ms = 0.1;
  uint64_t max_results = 0;
  double time_limit_seconds = 0;
  /// Bypass the result cache for this request (still records the miss).
  bool use_cache = true;
  /// Shard of the canonical seed space to enumerate, as a half-open
  /// index range into the reduced graph's seed order (EnumOptions::
  /// seed_range; the defaults select everything). Part of the signature
  /// when non-default — a shard is a complete, deterministic answer
  /// *for its range*. Unsupported by the fp baseline (rejected).
  uint32_t seed_begin = 0;
  uint32_t seed_end = UINT32_MAX;
  /// Collect the plex bodies of the answer (wire option results=stream).
  /// Part of the signature (`|bodies=on`): the cached entry carries the
  /// bodies, so only body-carrying entries may serve body requests.
  bool collect_bodies = false;
  /// Preferred result_chunk size for streamed delivery. Presentation
  /// only — it never changes the result set, so it is NOT part of the
  /// signature. 0 means the server default.
  uint32_t chunk_size = 0;
  /// Server-side selection (wire `filter=size>=S[,size<=T]` and
  /// `contain=V`): only matching plexes are counted, fingerprinted and
  /// collected. Each is part of the signature when set. Zero size
  /// bounds mean "unbounded".
  uint64_t filter_min_size = 0;
  uint64_t filter_max_size = 0;
  bool has_contain = false;
  uint32_t contain = 0;
  /// Keep only the K largest plexes (wire `top=K`; 0 keeps all).
  /// Selection is deterministic (size, then lexicographic) and happens
  /// in the sink, so the served set is emission-order independent.
  uint64_t top_k = 0;
  /// Maximum-k-plex mode (wire `mode=maximum`): serve FindMaximumKPlex
  /// instead of enumeration — the answer is the single largest k-plex
  /// (count 0 or 1). q, algo and threads do not apply and are ignored;
  /// filters/top/cursor/seed ranges are rejected.
  bool maximum = false;
  /// Resume cursor (wire `cursor=SEED:ORDINAL`) from a previous
  /// max_results-truncated sequential run: enumeration restarts at seed
  /// index cursor_seed and drops the first cursor_ordinal emissions.
  /// Sequential engines only (parallel truncation is nondeterministic).
  bool has_cursor = false;
  uint32_t cursor_seed = 0;
  uint64_t cursor_ordinal = 0;
  /// Optional cooperative cancellation, forwarded into EnumOptions.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional cooperative yield (work-stealing), forwarded into
  /// EnumOptions::yield. A yielded run is a complete answer for
  /// QueryResult::covered_begin/covered_end only, so it is never cached
  /// and never shared through the single-flight latch.
  const std::atomic<bool>* yield = nullptr;
  /// Trace id correlating this query's spans (obs/trace.h). 0 lets the
  /// engine allocate one. Not part of the cache signature.
  uint64_t trace_id = 0;

  /// True when the request selects a proper shard rather than the whole
  /// seed space.
  bool HasSeedRange() const {
    return seed_begin != 0 || seed_end != UINT32_MAX;
  }

  /// True when any server-side selection predicate is set.
  bool HasFilter() const {
    return filter_min_size > 0 || filter_max_size > 0 || has_contain;
  }
};

struct QueryResult {
  uint64_t num_plexes = 0;
  std::size_t max_plex_size = 0;
  /// Order-independent result-set fingerprint (HashingSink), letting
  /// clients assert that two runs produced the same set.
  uint64_t fingerprint = 0;
  /// The raw XOR half of the fingerprint (HashingSink::xor_hash) — the
  /// mergeable part: a coordinator XORs shards' values and re-derives
  /// the composite fingerprint from the summed count (core/sink.h
  /// MergeableResult).
  uint64_t fingerprint_xor = 0;
  /// Seed count of the reduced graph — the size of the canonical seed
  /// space a coordinator plans shard ranges over (independent of any
  /// seed range this request carried).
  uint64_t total_seeds = 0;
  /// Wall seconds of the run that produced the answer. For a cache hit
  /// this is the *original* run's time; `seconds` is the serving time.
  double compute_seconds = 0;
  double seconds = 0;
  bool timed_out = false;
  bool stopped_early = false;
  bool cancelled = false;
  /// True when the run stopped at a stage boundary (a seed boundary
  /// when sequential) because the request's yield flag was set; the
  /// result is then complete for the covered range below, and only for
  /// it.
  bool yielded = false;
  /// Half-open range of canonical seed indices this answer fully
  /// covers: the clamped requested range, except covered_end drops to
  /// the yield boundary on a yielded run. Meaningless on cancelled /
  /// timed-out runs.
  uint32_t covered_begin = 0;
  uint32_t covered_end = 0;
  bool from_cache = false;
  /// True when the answer came from the durable result store (the disk
  /// tier behind the memory cache; from_cache is also set — a disk hit
  /// is a warm hit). See store/result_store.h.
  bool from_store = false;
  /// True when the run consumed precomputed snapshot sections instead
  /// of peeling the (q-k)-core itself (counters prove the skip).
  bool reduction_precomputed = false;
  /// The engine counters of the run that produced the answer (a cache
  /// hit keeps the original run's; a disk hit has none).
  AlgoCounters counters;
  /// The plex bodies of the answer, present iff the request asked for
  /// them (collect_bodies / top_k / maximum). Shared so cache copies
  /// stay O(1). Sequential enumeration keeps emission order (the order
  /// cursors paginate); parallel runs are sorted lexicographically;
  /// top=K is best-first.
  std::shared_ptr<const std::vector<std::vector<VertexId>>> plexes;
  /// Resume cursor: set when a sequential run stopped at max_results
  /// with more of the enumeration left. Feeding it back as the
  /// request's cursor continues exactly where this run stopped.
  bool has_cursor = false;
  uint32_t cursor_seed = 0;
  uint64_t cursor_ordinal = 0;
  std::string signature;
};

/// The checks a request passes before any cache lookup or search work:
/// `threads` within kMaxQueryThreads, and selection options that
/// compose. INVALID_ARGUMENT names the first one that fails.
/// QueryEngine::Run and ExecuteQuery both start with it.
Status ValidateQuery(const QueryRequest& request);

/// The request->driver half of QueryEngine, callable without a catalog
/// or a cache: checks the request (ValidateQuery), then serves
/// mode=maximum through FindMaximumKPlex, or maps the algo onto
/// EnumOptions and runs the fp, parallel or sequential driver behind
/// the filter/cursor/top sink chain, and assembles the QueryResult.
/// `precompute` may be null. When `bodies` is non-null every served
/// plex goes to it: as it is emitted for plain, filtered and cursor
/// runs (so a FileSink streams the answer without holding it),
/// best-first after the run for top=K, and the one plex of maximum
/// mode. QueryResult::plexes, signature, seconds and the cache flags
/// are left to the caller.
StatusOr<QueryResult> ExecuteQuery(const Graph& graph,
                                   const GraphPrecompute* precompute,
                                   const QueryRequest& request,
                                   ResultSink* bodies, uint64_t trace_id);

class QueryEngine {
 public:
  /// `cache_capacity` bounds the number of cached query results
  /// (0 disables caching entirely).
  explicit QueryEngine(GraphCatalog& catalog, std::size_t cache_capacity = 64)
      : catalog_(catalog), cache_capacity_(cache_capacity) {}

  /// Executes (or serves from cache) one query.
  StatusOr<QueryResult> Run(const QueryRequest& request);

  /// Attaches the durable result store as the disk tier behind the
  /// memory cache: consulted on a memory miss (keyed by graph content
  /// hash + full signature), populated when a run completes — never on
  /// cancelled, timed-out, yielded, truncated, or cursor runs. The
  /// store is not owned and must outlive the engine (ServiceApi's
  /// member order guarantees this). Pass nullptr to detach.
  void AttachStore(ResultStore* store) {
    store_.store(store, std::memory_order_release);
  }
  ResultStore* store() const {
    return store_.load(std::memory_order_acquire);
  }

  /// The parameter part of the cache key: "graph|k|q|algo|max" — all
  /// request parameters that determine the result set, nothing else.
  /// The full signature Run() caches under appends "|pre=TAG", the
  /// catalog's snapshot-section availability for the graph
  /// (GraphCatalog::PrecomputeTag) — precompute does not change the
  /// result set, but keying on availability keeps cached entries
  /// attributable to the exact pipeline that produced them.
  static std::string CanonicalSignature(const QueryRequest& request);

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };
  CacheStats cache_stats() const;

  /// Drops cached results for one catalog graph (call when its backing
  /// data changes).
  void InvalidateGraph(const std::string& graph_name);

  GraphCatalog& catalog() { return catalog_; }

 private:
  // Single-flight latch: present in in_flight_ while one thread
  // executes the signature; waiters block on cv (against mutex_) and
  // serve `result` once done flips (has_result is false when the
  // leader's run was partial or errored — waiters then retry as
  // leaders themselves).
  struct InFlight {
    std::condition_variable cv;
    bool done = false;
    bool has_result = false;
    QueryResult result;
  };

  StatusOr<QueryResult> Execute(const QueryRequest& request,
                                uint64_t trace_id);
  /// Releases the latch; `result` non-null shares a complete answer
  /// with the waiters.
  void FinishInFlight(const std::string& signature,
                      const QueryResult* result);
  /// Inserts into the memory cache and trims to capacity. Caller holds
  /// mutex_.
  void CacheInsertLocked(const std::string& signature,
                         const QueryResult& result);

  GraphCatalog& catalog_;
  std::atomic<ResultStore*> store_{nullptr};
  const std::size_t cache_capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, QueryResult> cache_;
  LruList<std::string> cache_lru_;
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_QUERY_ENGINE_H_
