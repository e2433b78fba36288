// Unit tests for the QueryEngine: cache hits/misses, canonical
// signatures, correctness of cached answers against a direct engine
// run, cancellation semantics, cache invalidation, the one reduction
// per worker graph that seed-ranged (coordinator) queries share, and
// the durable result store tier (disk hits, persistence gating,
// cross-engine sharing).

#include "service/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/precompute.h"
#include "obs/metrics.h"
#include "service/graph_catalog.h"
#include "store/result_store.h"

namespace kplex {
namespace {

Graph TestGraph() { return GenerateErdosRenyi(120, 0.12, 42); }

// Named after the running test: ctest runs every case in its own
// process, so a per-process counter alone hands parallel cases one path.
std::string FreshStoreDir() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "kplex_engine_store_" +
                    test->test_suite_name() + "_" + test->name();
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<ResultStore> MustOpenStore(const std::string& dir) {
  StoreOptions options;
  options.directory = dir;
  auto store = ResultStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

uint64_t EnumerateStageCount() {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const HistogramSample& histogram : snapshot.histograms) {
    if (histogram.name == "kplex_stage_enumerate_seconds") {
      return histogram.count;
    }
  }
  return 0;
}

TEST(QueryEngine, ColdThenWarmHitWithIdenticalAnswer) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;

  auto cold = engine.Run(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->from_cache);

  // Reference answer straight from the sequential engine.
  CountingSink reference;
  auto direct = EnumerateMaximalKPlexes(TestGraph(),
                                        EnumOptions::Ours(2, 5), reference);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cold->num_plexes, reference.count());
  EXPECT_EQ(cold->max_plex_size, reference.max_size());

  auto warm = engine.Run(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->num_plexes, cold->num_plexes);
  EXPECT_EQ(warm->fingerprint, cold->fingerprint);

  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEngine, SignatureCoversResultShapingParametersOnly) {
  QueryRequest a;
  a.graph = "g";
  a.k = 2;
  a.q = 5;
  QueryRequest b = a;
  b.threads = 8;            // does not change the result set
  b.tau_ms = 7;             // ditto
  b.time_limit_seconds = 99;  // ditto (for completed runs)
  EXPECT_EQ(QueryEngine::CanonicalSignature(a),
            QueryEngine::CanonicalSignature(b));

  QueryRequest c = a;
  c.q = 6;
  QueryRequest d = a;
  d.max_results = 3;
  QueryRequest e = a;
  e.algo = QueryAlgo::kListPlex;
  EXPECT_NE(QueryEngine::CanonicalSignature(a),
            QueryEngine::CanonicalSignature(c));
  EXPECT_NE(QueryEngine::CanonicalSignature(a),
            QueryEngine::CanonicalSignature(d));
  EXPECT_NE(QueryEngine::CanonicalSignature(a),
            QueryEngine::CanonicalSignature(e));
}

TEST(QueryEngine, ParallelRequestHitsSequentialCacheEntry) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  QueryRequest sequential;
  sequential.graph = "g";
  sequential.k = 2;
  sequential.q = 5;
  auto cold = engine.Run(sequential);
  ASSERT_TRUE(cold.ok());

  QueryRequest parallel = sequential;
  parallel.threads = 4;
  auto warm = engine.Run(parallel);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->num_plexes, cold->num_plexes);
}

TEST(QueryEngine, UseCacheOffForcesRecompute) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  ASSERT_TRUE(engine.Run(request).ok());
  request.use_cache = false;
  auto recomputed = engine.Run(request);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->from_cache);
}

TEST(QueryEngine, LruBoundsCacheSize) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog, /*cache_capacity=*/2);
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  for (uint32_t q = 4; q <= 7; ++q) {
    request.q = q;
    ASSERT_TRUE(engine.Run(request).ok());
  }
  EXPECT_EQ(engine.cache_stats().entries, 2u);

  // q=7 and q=6 are the survivors; q=4 must recompute (miss).
  request.q = 7;
  auto hit = engine.Run(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  request.q = 4;
  auto miss = engine.Run(request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->from_cache);
}

TEST(QueryEngine, PreCancelledRunIsNotCached) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  std::atomic<bool> cancel{true};  // cancelled before it starts
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  request.cancel = &cancel;
  auto cancelled = engine.Run(request);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_TRUE(cancelled->cancelled);
  EXPECT_EQ(cancelled->num_plexes, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);

  // The same query re-runs to completion once the flag clears, and only
  // that complete answer enters the cache.
  cancel.store(false);
  auto complete = engine.Run(request);
  ASSERT_TRUE(complete.ok());
  EXPECT_FALSE(complete->cancelled);
  EXPECT_FALSE(complete->from_cache);
  EXPECT_GT(complete->num_plexes, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 1u);
}

TEST(QueryEngine, MidRunCancellationStopsTheEngine) {
  // A graph large enough that the run does not finish instantly, and a
  // flag that flips shortly after the query starts.
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.RegisterGraph("big", GenerateBarabasiAlbert(4000, 24, 9))
          .ok());
  QueryEngine engine(catalog);

  std::atomic<bool> cancel{false};
  QueryRequest request;
  request.graph = "big";
  request.k = 3;
  request.q = 6;
  request.cancel = &cancel;

  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(true);
  });
  auto result = engine.Run(request);
  trigger.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Either the run finished inside 20ms (fast machine) or it observed
  // the flag; a cancelled outcome must never be cached.
  if (result->cancelled) {
    EXPECT_EQ(engine.cache_stats().entries, 0u);
  } else {
    EXPECT_EQ(engine.cache_stats().entries, 1u);
  }
}

TEST(QueryEngine, TruncatedParallelRunIsNotCached) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  // Establish that the full answer has more than one plex, so a
  // max_results=1 run is genuinely truncated.
  QueryRequest full;
  full.graph = "g";
  full.k = 2;
  full.q = 5;
  auto complete = engine.Run(full);
  ASSERT_TRUE(complete.ok());
  ASSERT_GT(complete->num_plexes, 1u);

  // A parallel truncated run reports the cap and must not be cached
  // (workers race for the cap; the subset is not reproducible).
  QueryRequest capped = full;
  capped.max_results = 1;
  capped.threads = 2;
  auto truncated = engine.Run(capped);
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->stopped_early);
  capped.threads = 0;
  auto sequential = engine.Run(capped);
  ASSERT_TRUE(sequential.ok());
  EXPECT_FALSE(sequential->from_cache);  // parallel run was not cached
  EXPECT_TRUE(sequential->stopped_early);
  EXPECT_EQ(sequential->num_plexes, 1u);

  // The deterministic sequential truncation, by contrast, is cached.
  auto warm = engine.Run(capped);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->fingerprint, sequential->fingerprint);
}

TEST(QueryEngine, TimedOutPartialResultIsNeverServedAsComplete) {
  // Regression for the header contract: the canonical signature does
  // NOT cover time_limit_seconds, so if a timed-out partial answer ever
  // entered the cache it would satisfy a later unlimited query of the
  // same signature — silently serving a partial set as complete.
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.RegisterGraph("m", GenerateErdosRenyi(300, 0.08, 11)).ok());
  QueryEngine engine(catalog);

  QueryRequest limited;
  limited.graph = "m";
  limited.k = 2;
  limited.q = 5;
  limited.time_limit_seconds = 1e-7;  // expires within the first checks
  auto partial = engine.Run(limited);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  if (partial->timed_out) {
    EXPECT_EQ(engine.cache_stats().entries, 0u);
  }

  QueryRequest unlimited = limited;
  unlimited.time_limit_seconds = 0;
  ASSERT_EQ(QueryEngine::CanonicalSignature(limited),
            QueryEngine::CanonicalSignature(unlimited));
  auto complete = engine.Run(unlimited);
  ASSERT_TRUE(complete.ok());
  if (partial->timed_out) {
    EXPECT_FALSE(complete->from_cache);
  }
  EXPECT_FALSE(complete->timed_out);
  EXPECT_GE(complete->num_plexes, partial->num_plexes);

  // Only now is the signature cached — as the complete answer.
  auto warm = engine.Run(unlimited);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_FALSE(warm->timed_out);
  EXPECT_EQ(warm->num_plexes, complete->num_plexes);
}

TEST(QueryEngine, ConcurrentIdenticalQueriesExecuteOnce) {
  // Single-flight: N threads racing the same cold query must produce
  // one execution (1 miss) and identical answers for everyone else.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<StatusOr<QueryResult>> results(kThreads,
                                             Status::Internal("unset"));
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      QueryRequest request;
      request.graph = "g";
      request.k = 2;
      request.q = 5;
      results[i] = engine.Run(request);
    });
  }
  for (auto& thread : threads) thread.join();

  uint64_t fingerprint = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (fingerprint == 0) fingerprint = result->fingerprint;
    EXPECT_EQ(result->fingerprint, fingerprint);
  }
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEngine, SingleFlightHoldsWithCachingDisabled) {
  // cache_capacity 0 disables retention, not single-flight: racing
  // identical queries still collapse, with the leader's answer shared
  // through the in-flight latch.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog, /*cache_capacity=*/0);

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<StatusOr<QueryResult>> results(kThreads,
                                             Status::Internal("unset"));
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      QueryRequest request;
      request.graph = "g";
      request.k = 2;
      request.q = 5;
      results[i] = engine.Run(request);
    });
  }
  for (auto& thread : threads) thread.join();

  uint64_t fingerprint = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (fingerprint == 0) fingerprint = result->fingerprint;
    EXPECT_EQ(result->fingerprint, fingerprint);
  }
  // Nothing was retained afterwards: a later run recomputes.
  auto later = engine.Run([] {
    QueryRequest request;
    request.graph = "g";
    request.k = 2;
    request.q = 5;
    return request;
  }());
  ASSERT_TRUE(later.ok());
  EXPECT_FALSE(later->from_cache);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(QueryEngine, ConcurrentDistinctQueriesAllCorrect) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);

  // Serial references first.
  std::map<uint32_t, uint64_t> reference;
  for (uint32_t q = 4; q <= 8; ++q) {
    HashingSink sink;
    ASSERT_TRUE(
        EnumerateMaximalKPlexes(TestGraph(), EnumOptions::Ours(2, q), sink)
            .ok());
    reference[q] = sink.fingerprint();
  }

  std::vector<std::thread> threads;
  std::vector<StatusOr<QueryResult>> results(5, Status::Internal("unset"));
  for (uint32_t q = 4; q <= 8; ++q) {
    threads.emplace_back([&, q] {
      QueryRequest request;
      request.graph = "g";
      request.k = 2;
      request.q = q;
      results[q - 4] = engine.Run(request);
    });
  }
  for (auto& thread : threads) thread.join();
  for (uint32_t q = 4; q <= 8; ++q) {
    const auto& result = results[q - 4];
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->fingerprint, reference[q]) << "q=" << q;
  }
  EXPECT_EQ(engine.cache_stats().entries, 5u);
}

TEST(QueryEngine, InvalidateGraphDropsOnlyThatGraph) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("a", TestGraph()).ok());
  ASSERT_TRUE(catalog.RegisterGraph("b", TestGraph()).ok());
  QueryEngine engine(catalog);
  QueryRequest request;
  request.k = 2;
  request.q = 5;
  request.graph = "a";
  ASSERT_TRUE(engine.Run(request).ok());
  request.graph = "b";
  ASSERT_TRUE(engine.Run(request).ok());
  EXPECT_EQ(engine.cache_stats().entries, 2u);

  engine.InvalidateGraph("a");
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  request.graph = "b";
  auto still_cached = engine.Run(request);
  ASSERT_TRUE(still_cached.ok());
  EXPECT_TRUE(still_cached->from_cache);
}

TEST(QueryEngine, UnknownGraphAndBadOptionsPropagate) {
  GraphCatalog catalog;
  QueryEngine engine(catalog);
  QueryRequest request;
  request.graph = "nope";
  EXPECT_EQ(engine.Run(request).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  request.graph = "g";
  request.k = 3;
  request.q = 2;  // violates q >= 2k - 1
  EXPECT_EQ(engine.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

// Only counts above the bound: they are refused before any thread
// starts.
void ExpectThreadCountsRefused(QueryEngine& engine, QueryRequest request) {
  for (const uint32_t threads : {kMaxQueryThreads + 1, UINT32_MAX}) {
    request.threads = threads;
    auto result = engine.Run(request);
    ASSERT_FALSE(result.ok()) << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(
                  "at most " + std::to_string(kMaxQueryThreads)),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(QueryEngine, ThreadCountsAboveTheBoundAreRefused) {
  GraphCatalog catalog;
  QueryEngine engine(catalog);
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  ExpectThreadCountsRefused(engine, request);

  // The signature leaves out threads: a cached answer for the same
  // query must not serve a count the uncached path refuses.
  ASSERT_TRUE(engine.Run(request).ok());
  auto cached = engine.Run(request);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_TRUE(cached->from_cache);
  ExpectThreadCountsRefused(engine, request);
}

TEST(QueryEngineStore, ThreadCountsAboveTheBoundAreRefusedOnADiskHit) {
  const std::string dir = FreshStoreDir();
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  {
    QueryEngine engine(catalog);
    auto store = MustOpenStore(dir);
    engine.AttachStore(store.get());
    ASSERT_TRUE(engine.Run(request).ok());
    EXPECT_EQ(store->stats().writes, 1u);
    engine.AttachStore(nullptr);
  }
  // A fresh engine without a memory cache: the repeat would be a disk
  // hit.
  QueryEngine engine(catalog, /*cache_capacity=*/0);
  auto store = MustOpenStore(dir);
  engine.AttachStore(store.get());
  auto disk = engine.Run(request);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(disk->from_store);
  ExpectThreadCountsRefused(engine, request);
  EXPECT_EQ(store->stats().hits, 1u);
  engine.AttachStore(nullptr);
  std::filesystem::remove_all(dir);
}

QueryRequest RangedQuery(uint32_t begin, uint32_t end) {
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  request.seed_begin = begin;
  request.seed_end = end;
  return request;
}

TEST(QueryEngine, SeedRangedQueriesReduceTheGraphOnce) {
  // Seed-ranged queries are coordinator chunks. On a graph whose source
  // carries no sections, the first one computes order + coreness
  // sections, and every later chunk serves its reduction from them.
  const Graph graph = TestGraph();
  const std::size_t section_bytes =
      ComputeGraphPrecompute(graph, {}).MemoryBytes();
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", graph).ok());
  const std::size_t graph_bytes = catalog.ResidentBytes();
  QueryEngine engine(catalog, /*cache_capacity=*/0);

  // A whole-graph query computes nothing.
  auto whole = engine.Run(RangedQuery(0, UINT32_MAX));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_FALSE(whole->reduction_precomputed);
  EXPECT_EQ(catalog.ResidentBytes(), graph_bytes);
  EXPECT_EQ(catalog.GetFull("g")->precompute, nullptr);

  const uint32_t half = static_cast<uint32_t>(whole->total_seeds / 2);
  auto low = engine.Run(RangedQuery(0, half));
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(catalog.ResidentBytes(), graph_bytes + section_bytes);
  auto high = engine.Run(RangedQuery(half, UINT32_MAX));
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_TRUE(high->reduction_precomputed);
  EXPECT_EQ(catalog.ResidentBytes(), graph_bytes + section_bytes);
  // The signature keeps the tag the source carried.
  EXPECT_EQ(*catalog.PrecomputeTag("g"), "none");
  EXPECT_NE(high->signature.find("|pre=none"), std::string::npos);

  MergeableResult merged;
  for (const QueryResult* part : {&*low, &*high}) {
    EXPECT_EQ(part->total_seeds, whole->total_seeds);
    merged.Merge({part->num_plexes, part->fingerprint_xor,
                  part->max_plex_size});
  }
  EXPECT_EQ(merged.count, whole->num_plexes);
  EXPECT_EQ(merged.fingerprint(), whole->fingerprint);
  EXPECT_EQ(merged.max_plex_size, whole->max_plex_size);
}

TEST(QueryEngine, EvictedGraphReloadsWithoutSections) {
  const std::string path = ::testing::TempDir() + "kplex_engine_sections.txt";
  ASSERT_TRUE(SaveEdgeList(TestGraph(), path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  QueryEngine engine(catalog, /*cache_capacity=*/0);
  ASSERT_TRUE(engine.Run(RangedQuery(0, 10)).ok());
  ASSERT_NE(catalog.GetFull("g")->precompute, nullptr);

  // Eviction drops the sections with the graph; the reload starts over.
  ASSERT_TRUE(catalog.Evict("g").ok());
  EXPECT_EQ(catalog.ResidentBytes(), 0u);
  auto reloaded = catalog.GetFull("g");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->precompute, nullptr);
  EXPECT_EQ(catalog.ResidentBytes(), reloaded->graph->MemoryBytes());
  auto again = engine.Run(RangedQuery(0, 10));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->reduction_precomputed);
  std::remove(path.c_str());
}

TEST(QueryEngine, ConcurrentFirstChunksAttachSectionsOnce) {
  // Four chunks race on a graph without sections: one computes them,
  // the rest wait for it, and the bytes are counted once.
  const Graph graph = TestGraph();
  const std::size_t section_bytes =
      ComputeGraphPrecompute(graph, {}).MemoryBytes();
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", graph).ok());
  const std::size_t graph_bytes = catalog.ResidentBytes();
  QueryEngine engine(catalog, /*cache_capacity=*/0);
  std::vector<QueryResult> results(4);
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < 4; ++i) {
    threads.emplace_back([&engine, &results, i] {
      auto result = engine.Run(RangedQuery(i * 10, (i + 1) * 10));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      results[i] = *std::move(result);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const QueryResult& result : results) {
    EXPECT_TRUE(result.reduction_precomputed);
  }
  EXPECT_EQ(catalog.ResidentBytes(), graph_bytes + section_bytes);
}

TEST(QueryEngineStore, DiskHitServesFreshEngineWithoutEnumerating) {
  const std::string dir = FreshStoreDir();
  uint64_t cold_fingerprint = 0;
  uint64_t cold_plexes = 0;
  {
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
    QueryEngine engine(catalog);
    auto store = MustOpenStore(dir);
    engine.AttachStore(store.get());

    QueryRequest request;
    request.graph = "g";
    request.k = 2;
    request.q = 5;
    auto cold = engine.Run(request);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_FALSE(cold->from_store);
    EXPECT_EQ(store->stats().writes, 1u);
    cold_fingerprint = cold->fingerprint;
    cold_plexes = cold->num_plexes;
    engine.AttachStore(nullptr);  // store outlives its last use
  }

  // A fresh engine + fresh store handle on the same directory is the
  // process-restart scenario: the answer must come off disk without the
  // enumerate stage ever running, bit-identical to the computed one.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);
  auto store = MustOpenStore(dir);
  engine.AttachStore(store.get());

  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  const uint64_t enumerations_before = EnumerateStageCount();
  auto disk = engine.Run(request);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_TRUE(disk->from_store);
  EXPECT_TRUE(disk->from_cache);
  EXPECT_EQ(disk->fingerprint, cold_fingerprint);
  EXPECT_EQ(disk->num_plexes, cold_plexes);
  EXPECT_EQ(EnumerateStageCount(), enumerations_before);
  EXPECT_EQ(store->stats().hits, 1u);

  // The disk hit back-filled the memory cache: the repeat is a pure
  // memory hit (from_cache without from_store, store hits unchanged).
  auto warm = engine.Run(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_FALSE(warm->from_store);
  EXPECT_EQ(warm->fingerprint, cold_fingerprint);
  EXPECT_EQ(store->stats().hits, 1u);
  engine.AttachStore(nullptr);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineStore, IncompleteOrCursorRunsAreNeverPersisted) {
  const std::string dir = FreshStoreDir();
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);
  auto store = MustOpenStore(dir);
  engine.AttachStore(store.get());

  // Cancelled: not a complete answer.
  std::atomic<bool> cancel{true};
  QueryRequest cancelled;
  cancelled.graph = "g";
  cancelled.k = 2;
  cancelled.q = 5;
  cancelled.cancel = &cancel;
  auto aborted = engine.Run(cancelled);
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE(aborted->cancelled);
  EXPECT_EQ(store->stats().writes, 0u);

  // Sequential truncation: memory-cacheable (deterministic prefix) but
  // the durable tier only holds whole answers.
  QueryRequest truncated;
  truncated.graph = "g";
  truncated.k = 2;
  truncated.q = 5;
  truncated.max_results = 1;
  auto capped = engine.Run(truncated);
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(capped->stopped_early);
  EXPECT_EQ(store->stats().writes, 0u);

  // Cursor resumption: pages of a truncated run, never persisted.
  QueryRequest cursor;
  cursor.graph = "g";
  cursor.k = 2;
  cursor.q = 5;
  cursor.has_cursor = true;
  cursor.cursor_seed = 0;
  cursor.cursor_ordinal = 0;
  ASSERT_TRUE(engine.Run(cursor).ok());
  EXPECT_EQ(store->stats().writes, 0u);

  // cache=off bypasses both warm tiers, writes included.
  QueryRequest uncached;
  uncached.graph = "g";
  uncached.k = 2;
  uncached.q = 5;
  uncached.use_cache = false;
  ASSERT_TRUE(engine.Run(uncached).ok());
  EXPECT_EQ(store->stats().writes, 0u);

  // A query run to completion normally IS persisted — the gate
  // discriminates outcomes, it is not store-wide. (Fresh q: the
  // cache=off run above still populated the memory cache for q=5, and
  // a memory hit never reaches the disk tier.)
  QueryRequest complete;
  complete.graph = "g";
  complete.k = 2;
  complete.q = 4;
  auto whole = engine.Run(complete);
  ASSERT_TRUE(whole.ok());
  EXPECT_FALSE(whole->stopped_early);
  EXPECT_EQ(store->stats().writes, 1u);
  engine.AttachStore(nullptr);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineStore, EnginesSharingAStoreDirectoryConverge) {
  // Two independent engines — separate processes in miniature, each
  // with its own ResultStore handle on one shared directory — race the
  // same cold query. Writes are last-writer-wins over identical bytes
  // (the answer is deterministic), so afterwards a third fresh engine
  // must be served off disk. Run under TSan in CI.
  const std::string dir = FreshStoreDir();
  std::vector<std::thread> threads;
  std::vector<StatusOr<QueryResult>> results(2, Status::Internal("unset"));
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      GraphCatalog catalog;
      ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
      QueryEngine engine(catalog);
      auto store = MustOpenStore(dir);
      engine.AttachStore(store.get());
      QueryRequest request;
      request.graph = "g";
      request.k = 2;
      request.q = 5;
      results[i] = engine.Run(request);
      engine.AttachStore(nullptr);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_EQ(results[0]->fingerprint, results[1]->fingerprint);
  EXPECT_EQ(results[0]->num_plexes, results[1]->num_plexes);

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph()).ok());
  QueryEngine engine(catalog);
  auto store = MustOpenStore(dir);
  engine.AttachStore(store.get());
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  auto served = engine.Run(request);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->from_store);
  EXPECT_EQ(served->fingerprint, results[0]->fingerprint);
  EXPECT_EQ(store->stats().entries, 1u);  // one key, however many racers
  engine.AttachStore(nullptr);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngine, AlgoNamesRoundTrip) {
  for (const char* name : {"ours", "ours_p", "basic", "listplex", "fp"}) {
    auto algo = ParseQueryAlgo(name);
    ASSERT_TRUE(algo.ok());
    EXPECT_STREQ(QueryAlgoName(*algo), name);
  }
  EXPECT_FALSE(ParseQueryAlgo("quantum").ok());
}

}  // namespace
}  // namespace kplex
