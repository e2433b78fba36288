// Unit tests for the shared reduction stage: the (q-k)-core and seed
// ordering served from precomputed snapshot sections must agree exactly
// with the recomputed path (same survivors, same order, same results),
// and inconsistent precompute must be ignored, not trusted.

#include "core/reduction.h"

#include <gtest/gtest.h>

#include <string>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/precompute.h"
#include "parallel/parallel_enumerator.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

Graph KarateGraph() {
  auto graph = LoadEdgeList(std::string(KPLEX_DATA_DIR) + "/karate.txt");
  EXPECT_TRUE(graph.ok());
  return *std::move(graph);
}

TEST(Reduction, PrecomputedCoreAndOrderingMatchRecomputedExactly) {
  for (const Graph& graph :
       {KarateGraph(), GenerateBarabasiAlbert(1500, 8, 5),
        GenerateErdosRenyi(600, 0.03, 7)}) {
    const GraphPrecompute pre = ComputeGraphPrecompute(graph, {});
    for (uint32_t k : {1u, 2u, 3u}) {
      EnumOptions plain = EnumOptions::Ours(k, 2 * k + 2);
      EnumOptions with_pre = plain;
      with_pre.precompute = &pre;

      AlgoCounters c1, c2;
      const PreparedReduction a = PrepareReduction(graph, plain, c1);
      const PreparedReduction b = PrepareReduction(graph, with_pre, c2);

      EXPECT_FALSE(a.core_precomputed);
      EXPECT_EQ(c1.core_reductions_precomputed, 0u);
      EXPECT_TRUE(b.core_precomputed);
      EXPECT_EQ(c2.core_reductions_precomputed, 1u);

      // Identical survivor sets and identical compacted subgraphs.
      ASSERT_EQ(a.core.to_original, b.core.to_original);
      EXPECT_EQ(a.core.graph.Edges(), b.core.graph.Edges());
      if (a.core.graph.NumVertices() == 0) continue;

      // The restriction of the stored full-graph peel IS the
      // degeneracy ordering of the core (suffix property + preserved
      // tie-breaks), so even order/rank/coreness match field by field.
      EXPECT_TRUE(b.order_precomputed);
      EXPECT_EQ(c2.orderings_precomputed, 1u);
      EXPECT_EQ(a.ordering.order, b.ordering.order);
      EXPECT_EQ(a.ordering.rank, b.ordering.rank);
      EXPECT_EQ(a.ordering.coreness, b.ordering.coreness);
      EXPECT_EQ(a.ordering.degeneracy, b.ordering.degeneracy);
      // So do the out-lists the seed graphs are rejected over.
      EXPECT_EQ(a.ordering.later_offsets, b.ordering.later_offsets);
      EXPECT_EQ(a.ordering.later_neighbors, b.ordering.later_neighbors);
      testing_util::ExpectOrientedBy(a.core.graph, a.ordering.rank,
                                     b.ordering);
    }
  }
}

TEST(Reduction, StoredMaskIsUsedWhenLevelMatches) {
  Graph graph = GenerateErdosRenyi(400, 0.04, 3);
  // k=2, q=6 -> level 4 stored; level 2 is not.
  const uint32_t levels[] = {4};
  const GraphPrecompute pre = ComputeGraphPrecompute(graph, levels);
  EnumOptions options = EnumOptions::Ours(2, 6);
  options.precompute = &pre;
  AlgoCounters counters;
  const PreparedReduction prepared =
      PrepareReduction(graph, options, counters);
  EXPECT_TRUE(prepared.core_precomputed);

  AlgoCounters plain_counters;
  EnumOptions plain = EnumOptions::Ours(2, 6);
  const PreparedReduction recomputed =
      PrepareReduction(graph, plain, plain_counters);
  EXPECT_EQ(prepared.core.to_original, recomputed.core.to_original);
}

TEST(Reduction, MismatchedPrecomputeFallsBackSilently) {
  Graph graph = GenerateErdosRenyi(200, 0.05, 1);
  // Precompute for a *different* graph (wrong vertex count): must be
  // ignored entirely.
  const GraphPrecompute stale =
      ComputeGraphPrecompute(GenerateErdosRenyi(100, 0.05, 2), {});
  EnumOptions options = EnumOptions::Ours(2, 5);
  options.precompute = &stale;
  AlgoCounters counters;
  const PreparedReduction prepared =
      PrepareReduction(graph, options, counters);
  EXPECT_FALSE(prepared.core_precomputed);
  EXPECT_FALSE(prepared.order_precomputed);
  EXPECT_EQ(counters.core_reductions_precomputed, 0u);

  AlgoCounters plain_counters;
  EnumOptions plain = EnumOptions::Ours(2, 5);
  const PreparedReduction recomputed =
      PrepareReduction(graph, plain, plain_counters);
  EXPECT_EQ(prepared.core.to_original, recomputed.core.to_original);
}

TEST(Reduction, NonDegeneracyOrderingsRecomputeTheOrder) {
  Graph graph = KarateGraph();
  const GraphPrecompute pre = ComputeGraphPrecompute(graph, {});
  EnumOptions options = EnumOptions::Ours(2, 6);
  options.ordering = VertexOrdering::kByDegreeAscending;
  options.precompute = &pre;
  AlgoCounters counters;
  const PreparedReduction prepared =
      PrepareReduction(graph, options, counters);
  EXPECT_TRUE(prepared.core_precomputed);   // membership still served
  EXPECT_FALSE(prepared.order_precomputed); // order honors the request
}

// End to end: same maximal k-plex count and order-independent
// fingerprint with and without precompute, sequential and parallel.
TEST(Reduction, EnumerationResultsIdenticalWithPrecompute) {
  for (const Graph& graph :
       {KarateGraph(), GenerateBarabasiAlbert(900, 10, 13)}) {
    const GraphPrecompute pre = ComputeGraphPrecompute(graph, {});
    EnumOptions plain = EnumOptions::Ours(2, 6);
    EnumOptions with_pre = plain;
    with_pre.precompute = &pre;

    HashingSink h1, h2, h3;
    auto base = EnumerateMaximalKPlexes(graph, plain, h1);
    auto fast = EnumerateMaximalKPlexes(graph, with_pre, h2);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(base->num_plexes, fast->num_plexes);
    EXPECT_EQ(h1.fingerprint(), h2.fingerprint());
    EXPECT_EQ(fast->counters.core_reductions_precomputed, 1u);
    EXPECT_EQ(fast->counters.orderings_precomputed, 1u);
    // Identical ordering implies identical traversal: every counter but
    // the two *_precomputed ones agrees, on the whole seed space and on
    // each half of it (a coordinator chunk).
    const uint32_t half = static_cast<uint32_t>(base->total_seeds / 2);
    for (const SeedRange range :
         {SeedRange{}, SeedRange{0, half}, SeedRange{half, UINT32_MAX}}) {
      EnumOptions ranged = plain;
      ranged.seed_range = range;
      EnumOptions ranged_pre = with_pre;
      ranged_pre.seed_range = range;
      CountingSink c1, c2;
      auto peeled = EnumerateMaximalKPlexes(graph, ranged, c1);
      auto served = EnumerateMaximalKPlexes(graph, ranged_pre, c2);
      ASSERT_TRUE(peeled.ok() && served.ok());
      AlgoCounters expected = peeled->counters;
      expected.core_reductions_precomputed = 1;
      expected.orderings_precomputed = 1;
      EXPECT_TRUE(served->counters == expected);
    }

    ParallelOptions parallel;
    parallel.num_threads = 4;
    auto par = ParallelEnumerateMaximalKPlexes(graph, with_pre, parallel, h3);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(par->num_plexes, base->num_plexes);
    EXPECT_EQ(h3.fingerprint(), h1.fingerprint());
    EXPECT_EQ(par->counters.core_reductions_precomputed, 1u);
  }
}

}  // namespace
}  // namespace kplex
