#include "service/query_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "core/max_kplex.h"
#include "core/sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_enumerator.h"
#include "store/result_store.h"
#include "util/timer.h"

namespace kplex {
namespace {

// Instrument handles are resolved once and cached: the registry lookup
// takes a mutex, the cached reference is a plain atomic bump. Engine
// metrics are process-global (all engines feed the same series).
Counter& QueriesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_engine_queries_total");
  return counter;
}
Counter& CacheHitsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_engine_cache_hits_total");
  return counter;
}
Counter& CacheMissesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "kplex_engine_cache_misses_total");
  return counter;
}
Counter& SingleFlightCollapsesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "kplex_engine_single_flight_collapses_total");
  return counter;
}
Histogram& CacheLookupSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_stage_cache_lookup_seconds");
  return histogram;
}
Histogram& CatalogLoadSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_stage_catalog_load_seconds");
  return histogram;
}
Histogram& EnumerateSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_stage_enumerate_seconds");
  return histogram;
}

// Counts, tracks the max size, and fingerprints in one pass; thread-safe
// like every core sink so both engines can share it.
class MeasuringSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> plex) override {
    counting_.Emit(plex);
    hashing_.Emit(plex);
  }

  uint64_t count() const { return counting_.count(); }
  std::size_t max_size() const { return counting_.max_size(); }
  uint64_t fingerprint() const { return hashing_.fingerprint(); }
  uint64_t xor_hash() const { return hashing_.xor_hash(); }

 private:
  CountingSink counting_;
  HashingSink hashing_;
};

}  // namespace

StatusOr<QueryAlgo> ParseQueryAlgo(const std::string& name) {
  if (name == "ours") return QueryAlgo::kOurs;
  if (name == "ours_p") return QueryAlgo::kOursP;
  if (name == "basic") return QueryAlgo::kBasic;
  if (name == "listplex") return QueryAlgo::kListPlex;
  if (name == "fp") return QueryAlgo::kFp;
  return Status::InvalidArgument("unknown algorithm '" + name +
                                 "' (expected ours, ours_p, basic, "
                                 "listplex, or fp)");
}

const char* QueryAlgoName(QueryAlgo algo) {
  switch (algo) {
    case QueryAlgo::kOurs: return "ours";
    case QueryAlgo::kOursP: return "ours_p";
    case QueryAlgo::kBasic: return "basic";
    case QueryAlgo::kListPlex: return "listplex";
    case QueryAlgo::kFp: return "fp";
  }
  return "?";
}

std::string QueryEngine::CanonicalSignature(const QueryRequest& request) {
  // `|seed=B:E` is appended only when set so every pre-existing
  // signature (and the cache entries stored under it) stays
  // byte-identical. A shard is a complete deterministic answer for its
  // range, so it caches under its own key.
  // The v4 selection options follow the same append-only rule; note
  // chunk_size is absent on purpose (pure presentation).
  return request.graph + "|k=" + std::to_string(request.k) +
         "|q=" + std::to_string(request.q) + "|algo=" +
         QueryAlgoName(request.algo) +
         "|max=" + std::to_string(request.max_results) +
         (request.HasSeedRange()
              ? "|seed=" + std::to_string(request.seed_begin) + ":" +
                    std::to_string(request.seed_end)
              : "") +
         (request.collect_bodies ? "|bodies=on" : "") +
         (request.filter_min_size > 0
              ? "|minsize=" + std::to_string(request.filter_min_size)
              : "") +
         (request.filter_max_size > 0
              ? "|maxsize=" + std::to_string(request.filter_max_size)
              : "") +
         (request.has_contain
              ? "|contain=" + std::to_string(request.contain)
              : "") +
         (request.top_k > 0 ? "|top=" + std::to_string(request.top_k) : "") +
         (request.maximum ? "|mode=maximum" : "") +
         (request.has_cursor
              ? "|cursor=" + std::to_string(request.cursor_seed) + ":" +
                    std::to_string(request.cursor_ordinal)
              : "");
}

StatusOr<QueryResult> QueryEngine::Run(const QueryRequest& request) {
  WallTimer timer;
  const uint64_t trace_id =
      request.trace_id != 0 ? request.trace_id : NextTraceId();
  QueriesTotal().Increment();
  // Before the cache lookup: the signature leaves out `threads`, so a
  // cached answer would otherwise serve a request ExecuteQuery refuses.
  KPLEX_RETURN_IF_ERROR(ValidateQuery(request));
  // Resolve the graph's snapshot-section availability for the
  // signature. The tag is "unknown" until the first materialization, so
  // force one then (the first query was about to load the graph
  // anyway); afterwards it is sticky across evictions and this is a
  // map lookup.
  auto tag = catalog_.PrecomputeTag(request.graph);
  if (!tag.ok()) return tag.status();
  if (*tag == "unknown") {
    TraceSpan load_span(trace_id, "catalog_load", &CatalogLoadSeconds());
    load_span.AddAttr("graph", request.graph);
    auto materialized = catalog_.GetFull(request.graph);
    if (!materialized.ok()) return materialized.status();
    tag = catalog_.PrecomputeTag(request.graph);
    if (!tag.ok()) return tag.status();
  }
  const std::string signature =
      CanonicalSignature(request) + "|pre=" + *tag;
  // The disk tier participates only when a store is attached and the
  // request is store-shaped: cache=off bypasses both warm tiers, and
  // cursor requests resume a truncated run (their pages are never
  // persisted, so neither reads make sense). The graph content hash —
  // the other half of the store key — is resolved up front: the graph
  // is resident after the tag resolution above, so this is one linear
  // pass the first time and a map lookup after.
  ResultStore* store = store_.load(std::memory_order_acquire);
  const bool store_eligible =
      store != nullptr && request.use_cache && !request.has_cursor;
  uint64_t graph_hash = 0;
  if (store_eligible) {
    auto hash = catalog_.ContentHash(request.graph);
    if (!hash.ok()) return hash.status();
    graph_hash = *hash;
  }
  bool leader = false;
  {
    // The span covers the lock-protected lookup *and* any single-flight
    // wait behind a leader — both are time this query spent not
    // executing.
    TraceSpan lookup_span(trace_id, "cache_lookup", &CacheLookupSeconds());
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cache_capacity_ > 0) {
        auto it = cache_.find(signature);
        if (request.use_cache && it != cache_.end()) {
          ++hits_;
          CacheHitsTotal().Increment();
          cache_lru_.Touch(signature);
          QueryResult result = it->second;
          result.from_cache = true;
          result.seconds = timer.ElapsedSeconds();
          return result;
        }
      }
      // cache=off requests bypass the lookup *and* the single-flight
      // wait: the caller explicitly asked for a fresh execution.
      if (!request.use_cache) break;
      auto flight = in_flight_.find(signature);
      if (flight == in_flight_.end()) break;
      // An identical query is already executing. Wait for its answer
      // instead of stampeding the same enumeration, but poll our own
      // cancel flag so a cancelled waiter unblocks promptly rather
      // than riding out the leader's run.
      std::shared_ptr<InFlight> shared = flight->second;
      while (!shared->done) {
        shared->cv.wait_for(lock, std::chrono::milliseconds(10));
        if (request.cancel != nullptr &&
            request.cancel->load(std::memory_order_relaxed)) {
          QueryResult result;
          result.cancelled = true;
          result.signature = signature;
          result.seconds = timer.ElapsedSeconds();
          return result;
        }
      }
      if (shared->has_result) {
        // The leader's complete answer, shared through the latch —
        // works even with the cache disabled.
        if (cache_capacity_ > 0) ++hits_;
        CacheHitsTotal().Increment();
        SingleFlightCollapsesTotal().Increment();
        QueryResult result = shared->result;
        result.from_cache = true;
        result.seconds = timer.ElapsedSeconds();
        return result;
      }
      // The leader's run was partial (or errored) and cannot be
      // shared; loop and become the leader ourselves.
    }
    if (cache_capacity_ > 0) ++misses_;
    CacheMissesTotal().Increment();
    if (request.use_cache) {
      in_flight_[signature] = std::make_shared<InFlight>();
      leader = true;
    }
  }

  // Memory miss: consult the disk tier before paying for enumeration.
  // Only the single-flight leader probes (waiters ride its answer), and
  // a hit back-fills the memory cache so the next repeat is a pure
  // memory hit.
  if (leader && store_eligible) {
    auto stored = store->Get(StoreKey{graph_hash, signature});
    if (stored.has_value()) {
      QueryResult result;
      result.num_plexes = stored->num_plexes;
      result.max_plex_size =
          static_cast<std::size_t>(stored->max_plex_size);
      result.fingerprint = stored->fingerprint;
      result.fingerprint_xor = stored->fingerprint_xor;
      result.total_seeds = stored->total_seeds;
      result.compute_seconds = stored->compute_seconds;
      result.reduction_precomputed = stored->reduction_precomputed;
      result.plexes = stored->plexes;
      // Only complete answers are ever persisted, so the covered range
      // is the clamped requested range (same arithmetic Execute uses).
      result.covered_begin = static_cast<uint32_t>(
          std::min<uint64_t>(request.seed_begin, stored->total_seeds));
      result.covered_end = static_cast<uint32_t>(
          std::min<uint64_t>(request.seed_end, stored->total_seeds));
      result.from_cache = true;
      result.from_store = true;
      result.signature = signature;
      result.seconds = timer.ElapsedSeconds();
      if (cache_capacity_ > 0) {
        // The cached copy drops the hit flags, like a computed entry:
        // they describe how *this* response was served, not the entry.
        QueryResult cached = result;
        cached.from_cache = false;
        cached.from_store = false;
        std::lock_guard<std::mutex> lock(mutex_);
        CacheInsertLocked(signature, cached);
      }
      FinishInFlight(signature, &result);
      return result;
    }
  }

  auto executed = Execute(request, trace_id);
  if (!executed.ok()) {
    if (leader) FinishInFlight(signature, nullptr);
    return executed.status();
  }
  QueryResult result = *std::move(executed);
  result.signature = signature;
  result.seconds = timer.ElapsedSeconds();

  // Partial answers (timeout/cancel) must not satisfy future queries.
  // A max_results-truncated run is cacheable only when sequential: the
  // sequential engine always truncates to the same deterministic
  // prefix, while parallel workers race for the cap and produce a
  // different subset each run.
  const bool nondeterministic_subset =
      result.stopped_early && request.threads > 0;
  // A yielded run covers only a prefix of its range — correct for the
  // steal that asked for it, wrong for anyone else with the same
  // signature, so it is neither cached nor single-flight-shared.
  const bool complete_answer = !result.timed_out && !result.cancelled &&
                               !result.yielded && !nondeterministic_subset;
  if (cache_capacity_ > 0 && complete_answer) {
    std::lock_guard<std::mutex> lock(mutex_);
    CacheInsertLocked(signature, result);
  }
  // Populate the disk tier on completion. Stricter than the memory
  // cache: a sequential max_results-truncated run is memory-cacheable
  // (deterministic prefix) but never persisted — the durable tier only
  // holds whole answers (docs/RESULT_STORE.md crash model).
  if (store_eligible && complete_answer && !result.stopped_early) {
    StoredResult stored;
    stored.num_plexes = result.num_plexes;
    stored.max_plex_size = result.max_plex_size;
    stored.fingerprint = result.fingerprint;
    stored.fingerprint_xor = result.fingerprint_xor;
    stored.total_seeds = result.total_seeds;
    stored.compute_seconds = result.compute_seconds;
    stored.reduction_precomputed = result.reduction_precomputed;
    stored.plexes = result.plexes;
    // Best-effort: a failed write (disk full, simulated crash) degrades
    // the warm tier, never the answer in hand.
    (void)store->Put(StoreKey{graph_hash, signature}, stored);
  }
  if (leader) {
    FinishInFlight(signature, complete_answer ? &result : nullptr);
  }
  return result;
}

void QueryEngine::CacheInsertLocked(const std::string& signature,
                                    const QueryResult& result) {
  cache_[signature] = result;
  cache_lru_.Touch(signature);
  while (cache_lru_.size() > cache_capacity_) {
    const std::string victim = cache_lru_.LeastRecent();
    cache_.erase(victim);
    cache_lru_.Erase(victim);
  }
}

void QueryEngine::FinishInFlight(const std::string& signature,
                                 const QueryResult* result) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = in_flight_.find(signature);
  if (it == in_flight_.end()) return;
  if (result != nullptr) {
    it->second->result = *result;
    it->second->has_result = true;
  }
  it->second->done = true;
  it->second->cv.notify_all();
  in_flight_.erase(it);
}

StatusOr<QueryResult> QueryEngine::Execute(const QueryRequest& request,
                                           uint64_t trace_id) {
  StatusOr<CatalogGraph> resolved = Status::Internal("unreachable");
  {
    // Usually resident (the signature resolution above materialized
    // it), in which case this records a near-zero span. A seed-ranged
    // query is one chunk of a coordinated mine: it asks for sections so
    // the worker reduces the graph once, not once per chunk.
    TraceSpan load_span(trace_id, "catalog_load", &CatalogLoadSeconds());
    load_span.AddAttr("graph", request.graph);
    resolved = request.HasSeedRange() ? catalog_.GetWithSections(request.graph)
                                      : catalog_.GetFull(request.graph);
  }
  if (!resolved.ok()) return resolved.status();
  // The graph and its sections stay alive for the whole run through
  // `resolved` (eviction-safe). Bodies are buffered: the caches keep
  // them and the session streams them once the verdict is known.
  const bool want_bodies =
      request.collect_bodies || request.top_k > 0 || request.maximum;
  CollectingSink collecting;
  auto result =
      ExecuteQuery(*resolved->graph, resolved->precompute.get(), request,
                   want_bodies ? &collecting : nullptr, trace_id);
  if (!result.ok() || !want_bodies) return result;
  // Sequential runs keep enumeration order so cursor pages concatenate;
  // parallel emission order is racy, so sort for a deterministic
  // (cacheable) body list. top=K already arrives best-first.
  result->plexes = std::make_shared<const std::vector<std::vector<VertexId>>>(
      request.threads > 0 && request.top_k == 0 ? collecting.SortedResults()
                                                : collecting.Results());
  return result;
}

Status ValidateQuery(const QueryRequest& request) {
  if (request.threads > kMaxQueryThreads) {
    return Status::InvalidArgument(
        "threads must be at most " + std::to_string(kMaxQueryThreads) +
        " (got " + std::to_string(request.threads) + ")");
  }
  // Reject non-composing v4 selection options before any search work.
  if (request.maximum &&
      (request.HasFilter() || request.top_k > 0 || request.has_cursor ||
       request.max_results > 0 || request.HasSeedRange())) {
    return Status::InvalidArgument(
        "mode=maximum answers with the single largest k-plex and does not "
        "compose with filters, top, cursors, max-results or seed ranges");
  }
  if (request.has_cursor) {
    if (request.threads > 0) {
      return Status::InvalidArgument(
          "cursor resume requires a sequential run (threads=0): parallel "
          "truncation does not produce a deterministic prefix");
    }
    if (request.top_k > 0) {
      return Status::InvalidArgument(
          "cursor does not compose with top=K (top selects over the "
          "whole run, not a page of it)");
    }
    if (request.HasSeedRange()) {
      return Status::InvalidArgument(
          "cursor and seed-range are mutually exclusive (the cursor "
          "already positions the seed space)");
    }
  }
  if (request.HasSeedRange() && request.algo == QueryAlgo::kFp) {
    // The fp baseline has its own search order; a range over the
    // canonical degeneracy seed order means nothing to it.
    return Status::InvalidArgument(
        "the fp baseline does not support seed ranges");
  }
  return Status::Ok();
}

StatusOr<QueryResult> ExecuteQuery(const Graph& graph,
                                   const GraphPrecompute* precompute,
                                   const QueryRequest& request,
                                   ResultSink* bodies, uint64_t trace_id) {
  KPLEX_RETURN_IF_ERROR(ValidateQuery(request));
  if (request.maximum) {
    // mode=maximum serves the maximum-k-plex solver: the answer is the
    // single largest k-plex (count 0 or 1), measured through the same
    // fingerprint algebra so clients can compare it like any result set.
    StatusOr<MaxKPlexResult> found = Status::Internal("unreachable");
    {
      TraceSpan enumerate_span(trace_id, "enumerate", &EnumerateSeconds());
      enumerate_span.AddAttr("graph", request.graph);
      enumerate_span.AddAttr("k", std::to_string(request.k));
      enumerate_span.AddAttr("mode", "maximum");
      found = FindMaximumKPlex(graph, request.k);
    }
    if (!found.ok()) return found.status();
    QueryResult result;
    result.compute_seconds = found->seconds;
    if (found->found) {
      const std::span<const VertexId> plex(found->plex);
      MeasuringSink measure;
      measure.Emit(plex);
      if (bodies != nullptr) bodies->Emit(plex);
      result.num_plexes = 1;
      result.max_plex_size = found->plex.size();
      result.fingerprint = measure.fingerprint();
      result.fingerprint_xor = measure.xor_hash();
    }
    return result;
  }

  EnumOptions options;
  switch (request.algo) {
    case QueryAlgo::kOurs:
      options = EnumOptions::Ours(request.k, request.q);
      break;
    case QueryAlgo::kOursP:
      options = EnumOptions::OursP(request.k, request.q);
      break;
    case QueryAlgo::kBasic:
      options = EnumOptions::Basic(request.k, request.q);
      break;
    case QueryAlgo::kListPlex:
      options = ListPlexOptions(request.k, request.q);
      break;
    case QueryAlgo::kFp:
      options = FpOptions(request.k, request.q);
      break;
  }
  options.max_results = request.max_results;
  options.time_limit_seconds = request.time_limit_seconds;
  options.cancel = request.cancel;
  options.yield = request.yield;
  options.precompute = precompute;
  options.seed_range.begin = request.seed_begin;
  options.seed_range.end = request.seed_end;

  // Cursor resume: restart at the cursor's seed, drop the emissions a
  // previous page already delivered, and lift the cap by the same
  // amount so max_results still bounds *this* page. max_results (and
  // the cursor ordinal) count raw enumeration emissions, before any
  // filter — a filtered page may therefore carry fewer than
  // max_results matches, but pagination stays exact.
  uint64_t skip = 0;
  if (request.has_cursor) {
    options.seed_range.begin = request.cursor_seed;
    skip = request.cursor_ordinal;
    if (options.max_results > 0) {
      if (options.max_results > UINT64_MAX - skip) {
        return Status::InvalidArgument(
            "cursor ordinal + max-results overflows");
      }
      options.max_results += skip;
    }
  }

  // The sink chain (innermost first): the measuring sink (teed into
  // `bodies`) or the top-K selection, wrapped by the server-side
  // filter, wrapped by the cursor skip. Measuring sits after the
  // filter, so the reported count and fingerprint describe exactly the
  // served set.
  MeasuringSink measuring;
  TopKSink topk(static_cast<std::size_t>(request.top_k));
  CallbackSink tee([&](std::span<const VertexId> plex) {
    measuring.Emit(plex);
    bodies->Emit(plex);
  });
  ResultSink* target = &measuring;
  if (request.top_k > 0) {
    target = &topk;
  } else if (bodies != nullptr) {
    target = &tee;
  }
  PlexFilter filter;
  filter.min_size = request.filter_min_size;
  filter.max_size = request.filter_max_size;
  filter.has_contain = request.has_contain;
  filter.contain = request.contain;
  FilteringSink filtered(filter, *target);
  if (filter.IsActive()) target = &filtered;
  SkippingSink skipping(skip, *target);
  ResultSink& sink = skip > 0 ? static_cast<ResultSink&>(skipping) : *target;

  StatusOr<EnumResult> run = Status::Internal("unreachable");
  {
    TraceSpan enumerate_span(trace_id, "enumerate", &EnumerateSeconds());
    enumerate_span.AddAttr("graph", request.graph);
    enumerate_span.AddAttr("k", std::to_string(request.k));
    enumerate_span.AddAttr("q", std::to_string(request.q));
    enumerate_span.AddAttr("algo", QueryAlgoName(request.algo));
    if (request.algo == QueryAlgo::kFp) {
      run = FpEnumerate(graph, options, sink);
    } else if (request.threads > 0) {
      ParallelOptions parallel;
      parallel.num_threads = request.threads;
      parallel.timeout_ms = request.tau_ms;
      run = ParallelEnumerateMaximalKPlexes(graph, options, parallel, sink);
    } else {
      run = EnumerateMaximalKPlexes(graph, options, sink);
    }
  }
  if (!run.ok()) return run.status();

  QueryResult result;
  if (request.top_k > 0) {
    // The selection is final only after the run; measure the winners
    // so count/max/fingerprint describe the served set.
    for (const std::vector<VertexId>& plex : topk.Selected()) {
      measuring.Emit(plex);
      if (bodies != nullptr) bodies->Emit(plex);
    }
  } else if (run->has_resume && request.threads == 0) {
    result.has_cursor = true;
    result.cursor_seed = run->resume_seed;
    result.cursor_ordinal = run->resume_ordinal;
  }
  result.num_plexes = measuring.count();
  result.max_plex_size = measuring.max_size();
  result.fingerprint = measuring.fingerprint();
  result.fingerprint_xor = measuring.xor_hash();
  result.total_seeds = run->total_seeds;
  result.compute_seconds = run->seconds;
  result.timed_out = run->timed_out;
  result.stopped_early = run->stopped_early;
  result.cancelled = run->cancelled;
  result.yielded = run->yielded;
  result.covered_begin = run->covered_begin;
  result.covered_end = run->covered_end;
  result.reduction_precomputed =
      run->counters.core_reductions_precomputed > 0;
  result.counters = run->counters;
  return result;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{hits_, misses_, cache_.size(), cache_capacity_};
}

void QueryEngine::InvalidateGraph(const std::string& graph_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string prefix = graph_name + "|";
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      cache_lru_.Erase(it->first);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace kplex
