// Shard determinism suite: seed-range mining (EnumOptions::seed_range)
// must partition the result set exactly — the union of N disjoint
// shards equals one full run, set-for-set and fingerprint-for-
// fingerprint, for both engines across a (k, q) grid and under
// precompute sections. Plus the MergeableResult algebra, range
// clamping/validation, and the QueryEngine plumbing (signatures, cache
// isolation, total_seeds/fingerprint_xor reporting).

#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "graph/precompute.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "parallel/parallel_enumerator.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::DiffSets;
using testing_util::ResultSet;
using testing_util::VerifyResultSet;

Graph TestGraph(uint64_t seed) { return GenerateErdosRenyi(220, 0.08, seed); }

struct FullRun {
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  uint64_t total_seeds = 0;
  ResultSet results;
};

FullRun RunFull(const Graph& graph, const EnumOptions& options) {
  FullRun full;
  CollectingSink collecting;
  HashingSink hashing;
  CallbackSink tee([&](std::span<const VertexId> plex) {
    collecting.Emit(plex);
    hashing.Emit(plex);
  });
  auto result = EnumerateMaximalKPlexes(graph, options, tee);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  full.count = result->num_plexes;
  full.fingerprint = hashing.fingerprint();
  full.total_seeds = result->total_seeds;
  full.results = collecting.SortedResults();
  return full;
}

/// Runs `shards` disjoint ranges through the given engine and returns
/// the merged summary plus the unioned result set.
struct ShardedRun {
  MergeableResult merged;
  ResultSet results;
};

ShardedRun RunSharded(const Graph& graph, const EnumOptions& base,
                      uint32_t shards, uint64_t total_seeds,
                      uint32_t parallel_threads) {
  ShardedRun out;
  CollectingSink collecting;
  for (uint32_t i = 0; i < shards; ++i) {
    EnumOptions options = base;
    options.seed_range.begin =
        static_cast<uint32_t>(total_seeds * i / shards);
    options.seed_range.end =
        static_cast<uint32_t>(total_seeds * (i + 1) / shards);
    HashingSink hashing;
    CountingSink counting;
    CallbackSink tee([&](std::span<const VertexId> plex) {
      collecting.Emit(plex);
      hashing.Emit(plex);
      counting.Emit(plex);
    });
    StatusOr<EnumResult> result = Status::Internal("unreachable");
    if (parallel_threads > 0) {
      ParallelOptions parallel;
      parallel.num_threads = parallel_threads;
      result = ParallelEnumerateMaximalKPlexes(graph, options, parallel, tee);
    } else {
      result = EnumerateMaximalKPlexes(graph, options, tee);
    }
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_seeds, total_seeds)
        << "total_seeds must not depend on the shard";
    MergeableResult piece;
    piece.count = hashing.count();
    piece.xor_hash = hashing.xor_hash();
    piece.max_plex_size = counting.max_size();
    out.merged.Merge(piece);
  }
  out.results = collecting.SortedResults();
  return out;
}

TEST(ShardDeterminism, SequentialShardsPartitionTheResultSet) {
  Graph graph = TestGraph(11);
  const struct { uint32_t k, q; } grid[] = {{1, 3}, {2, 4}, {2, 6}, {3, 5}};
  for (const auto& cell : grid) {
    EnumOptions options = EnumOptions::Ours(cell.k, cell.q);
    const FullRun full = RunFull(graph, options);
    ASSERT_GT(full.total_seeds, 0u);
    // The oracle runs once per cell: each merge below must equal this
    // set, so every property it checks carries over to the merges.
    VerifyResultSet(graph, full.results, cell.k, cell.q);
    for (uint32_t shards : {2u, 3u, 7u}) {
      const ShardedRun sharded =
          RunSharded(graph, options, shards, full.total_seeds, 0);
      EXPECT_EQ(sharded.merged.count, full.count)
          << "k=" << cell.k << " q=" << cell.q << " shards=" << shards;
      EXPECT_EQ(sharded.merged.fingerprint(), full.fingerprint)
          << "k=" << cell.k << " q=" << cell.q << " shards=" << shards;
      // Set equality, not just count/fingerprint: shards must neither
      // duplicate nor drop a single plex.
      EXPECT_EQ(sharded.results, full.results)
          << DiffSets(full.results, sharded.results);
    }
  }
}

TEST(ShardDeterminism, ParallelShardsMatchSequentialFullRun) {
  Graph graph = TestGraph(23);
  const struct { uint32_t k, q; } grid[] = {{2, 4}, {2, 6}, {3, 6}};
  for (const auto& cell : grid) {
    EnumOptions options = EnumOptions::Ours(cell.k, cell.q);
    const FullRun full = RunFull(graph, options);
    ASSERT_GT(full.total_seeds, 0u);
    for (uint32_t shards : {2u, 4u}) {
      const ShardedRun sharded =
          RunSharded(graph, options, shards, full.total_seeds,
                     /*parallel_threads=*/4);
      EXPECT_EQ(sharded.merged.count, full.count);
      EXPECT_EQ(sharded.merged.fingerprint(), full.fingerprint);
      EXPECT_EQ(sharded.results, full.results)
          << DiffSets(full.results, sharded.results);
    }
  }
}

TEST(ShardDeterminism, ShardsComposeUnderPrecomputeSections) {
  // A worker serving reduction from v2 snapshot sections must shard
  // identically to one that peels — the canonical order is the same.
  Graph graph = TestGraph(31);
  const uint32_t k = 2, q = 6;
  const std::string path =
      ::testing::TempDir() + "shard_precompute_test.kpx";
  SnapshotWriteOptions write;
  write.include_precompute = true;
  write.core_mask_levels = {q - k};
  ASSERT_TRUE(SaveSnapshot(graph, path, write).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_FALSE(loaded->precompute.empty());

  EnumOptions plain = EnumOptions::Ours(k, q);
  const FullRun full = RunFull(graph, plain);

  EnumOptions served = plain;
  served.precompute = &loaded->precompute;
  const ShardedRun sharded =
      RunSharded(loaded->graph, served, 3, full.total_seeds, 0);
  EXPECT_EQ(sharded.merged.count, full.count);
  EXPECT_EQ(sharded.merged.fingerprint(), full.fingerprint);
  std::remove(path.c_str());
}

TEST(ShardRange, OutOfRangeClampsAndEmptyRangeIsEmpty) {
  Graph graph = TestGraph(5);
  EnumOptions options = EnumOptions::Ours(2, 4);
  const FullRun full = RunFull(graph, options);

  // A range far past the seed count clamps to "everything after".
  EnumOptions tail = options;
  tail.seed_range.begin = 0;
  tail.seed_range.end = UINT32_MAX;
  HashingSink all;
  auto run = EnumerateMaximalKPlexes(graph, tail, all);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(all.fingerprint(), full.fingerprint);

  // Entirely beyond the seed space: legal, empty.
  EnumOptions beyond = options;
  beyond.seed_range.begin = static_cast<uint32_t>(full.total_seeds);
  beyond.seed_range.end = UINT32_MAX;
  CountingSink none;
  run = EnumerateMaximalKPlexes(graph, beyond, none);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_plexes, 0u);
  EXPECT_EQ(run->total_seeds, full.total_seeds);

  // An empty range [0, 0) enumerates nothing but still reports the
  // seed-space size.
  EnumOptions probe = options;
  probe.seed_range.begin = 0;
  probe.seed_range.end = 0;
  CountingSink empty;
  run = EnumerateMaximalKPlexes(graph, probe, empty);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_plexes, 0u);
  EXPECT_EQ(run->total_seeds, full.total_seeds);

  // So does the parallel engine.
  ParallelOptions parallel;
  parallel.num_threads = 2;
  CountingSink par_empty;
  auto par = ParallelEnumerateMaximalKPlexes(graph, probe, parallel,
                                             par_empty);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(par->num_plexes, 0u);
  EXPECT_EQ(par->total_seeds, full.total_seeds);
}

TEST(ShardRange, InvertedRangeIsRejected) {
  Graph graph = TestGraph(5);
  EnumOptions options = EnumOptions::Ours(2, 4);
  options.seed_range.begin = 10;
  options.seed_range.end = 3;
  CountingSink sink;
  auto run = EnumerateMaximalKPlexes(graph, options, sink);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  auto par = ParallelEnumerateMaximalKPlexes(graph, options, {}, sink);
  EXPECT_FALSE(par.ok());
  EXPECT_EQ(par.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeableResult, MergeIsAssociativeAndCommutative) {
  auto make = [](uint64_t count, uint64_t xor_hash, std::size_t max_size) {
    MergeableResult r;
    r.count = count;
    r.xor_hash = xor_hash;
    r.max_plex_size = max_size;
    return r;
  };
  const MergeableResult a = make(3, 0xdeadbeef, 7);
  const MergeableResult b = make(5, 0xc0ffee, 9);
  const MergeableResult c = make(1, 0x1234567890abcdefULL, 4);

  MergeableResult ab = a;
  ab.Merge(b);
  MergeableResult ab_c = ab;
  ab_c.Merge(c);

  MergeableResult bc = b;
  bc.Merge(c);
  MergeableResult a_bc = a;
  a_bc.Merge(bc);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.xor_hash, a_bc.xor_hash);
  EXPECT_EQ(ab_c.max_plex_size, a_bc.max_plex_size);
  EXPECT_EQ(ab_c.fingerprint(), a_bc.fingerprint());

  MergeableResult ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());

  // The fingerprint formula matches HashingSink's composite exactly.
  HashingSink sink;
  const std::vector<VertexId> plex = {1, 2, 3, 4};
  sink.Emit(plex);
  MergeableResult one = make(sink.count(), sink.xor_hash(), plex.size());
  EXPECT_EQ(one.fingerprint(), sink.fingerprint());
}

TEST(QueryEngineShards, RangeEntersSignatureAndCacheIsolation) {
  QueryRequest full;
  full.graph = "g";
  full.k = 2;
  full.q = 5;
  QueryRequest shard = full;
  shard.seed_begin = 0;
  shard.seed_end = 10;
  // Distinct signatures: a shard's cached answer must never satisfy the
  // full query (or another shard).
  EXPECT_NE(QueryEngine::CanonicalSignature(full),
            QueryEngine::CanonicalSignature(shard));
  QueryRequest other = shard;
  other.seed_end = 20;
  EXPECT_NE(QueryEngine::CanonicalSignature(shard),
            QueryEngine::CanonicalSignature(other));
  // And the non-sharded signature is byte-identical to the historical
  // one (cache compatibility).
  EXPECT_EQ(QueryEngine::CanonicalSignature(full),
            "g|k=2|q=5|algo=ours|max=0");

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph(3)).ok());
  QueryEngine engine(catalog);

  auto full_result = engine.Run(full);
  ASSERT_TRUE(full_result.ok());
  ASSERT_GT(full_result->total_seeds, 0u);

  // Two halves merge to the full answer through the service types.
  QueryRequest lo = full;
  lo.seed_begin = 0;
  lo.seed_end = static_cast<uint32_t>(full_result->total_seeds / 2);
  QueryRequest hi = full;
  hi.seed_begin = lo.seed_end;
  hi.seed_end = UINT32_MAX;
  auto lo_result = engine.Run(lo);
  auto hi_result = engine.Run(hi);
  ASSERT_TRUE(lo_result.ok());
  ASSERT_TRUE(hi_result.ok());
  EXPECT_FALSE(lo_result->from_cache);
  MergeableResult merged;
  MergeableResult piece;
  piece.count = lo_result->num_plexes;
  piece.xor_hash = lo_result->fingerprint_xor;
  piece.max_plex_size = lo_result->max_plex_size;
  merged.Merge(piece);
  piece.count = hi_result->num_plexes;
  piece.xor_hash = hi_result->fingerprint_xor;
  piece.max_plex_size = hi_result->max_plex_size;
  merged.Merge(piece);
  EXPECT_EQ(merged.count, full_result->num_plexes);
  EXPECT_EQ(merged.fingerprint(), full_result->fingerprint);
  EXPECT_EQ(merged.max_plex_size, full_result->max_plex_size);

  // Warm repeat of a shard hits its own cache entry.
  auto lo_again = engine.Run(lo);
  ASSERT_TRUE(lo_again.ok());
  EXPECT_TRUE(lo_again->from_cache);
  EXPECT_EQ(lo_again->fingerprint_xor, lo_result->fingerprint_xor);
  EXPECT_EQ(lo_again->total_seeds, lo_result->total_seeds);
}

TEST(QueryEngineShards, FpBaselineRejectsSeedRanges) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterGraph("g", TestGraph(3)).ok());
  QueryEngine engine(catalog);
  QueryRequest request;
  request.graph = "g";
  request.k = 2;
  request.q = 5;
  request.algo = QueryAlgo::kFp;
  request.seed_begin = 0;
  request.seed_end = 5;
  auto result = engine.Run(request);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphContentHash, DistinguishesGraphsAndSurvivesReload) {
  Graph a = TestGraph(3);
  Graph b = TestGraph(4);
  EXPECT_NE(GraphContentHash(a), GraphContentHash(b));
  EXPECT_NE(GraphContentHash(a), 0u);
  // Same bytes through a snapshot round trip hash identically (the
  // cross-worker admission property).
  const std::string path = ::testing::TempDir() + "shard_hash_test.kpx";
  ASSERT_TRUE(SaveSnapshot(a, path).ok());
  auto reloaded = LoadSnapshotFull(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(GraphContentHash(a), GraphContentHash(reloaded->graph));
  std::remove(path.c_str());

  // Catalog: lazy, cached while resident, recomputed after a reload.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  // (file was removed; re-save for the catalog's lazy load)
  ASSERT_TRUE(SaveSnapshot(a, path).ok());
  auto hash = catalog.ContentHash("g");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  EXPECT_EQ(*hash, GraphContentHash(a));
  ASSERT_TRUE(catalog.Evict("g").ok());
  auto again = catalog.ContentHash("g");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *hash);
  // The file is REPLACED behind the catalog's back; after an eviction
  // the hash must track the new bytes (a stale hash would let a
  // mismatched snapshot through shard admission).
  ASSERT_TRUE(catalog.Evict("g").ok());
  ASSERT_TRUE(SaveSnapshot(b, path).ok());
  auto replaced = catalog.ContentHash("g");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, GraphContentHash(b));
  EXPECT_NE(*replaced, *hash);
  EXPECT_FALSE(catalog.ContentHash("nope").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kplex
