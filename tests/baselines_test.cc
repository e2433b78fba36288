// Tests for the reference enumerators and the re-implemented baselines:
// Algorithm 1 vs brute force, and baseline-specific behaviours (FP's
// monolithic tasks, ListPlex's configuration).

#include "baselines/bk_naive.h"

#include <gtest/gtest.h>

#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "core/enumerator.h"
#include "graph/builder.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::DiffSets;
using testing_util::RunEngine;

TEST(BruteForce, RejectsLargeGraphs) {
  Graph g = GenerateErdosRenyi(30, 0.1, 1);
  EXPECT_FALSE(BruteForceMaximalKPlexes(g, 2, 3).ok());
}

TEST(BruteForce, TriangleCliques) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  auto result = BruteForceMaximalKPlexes(g, 1, 2);
  ASSERT_TRUE(result.ok());
  // Maximal cliques of size >= 2: {0,1,2} and {2,3}.
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ((*result)[1], (std::vector<VertexId>{2, 3}));
}

TEST(BkReference, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Graph g = GenerateErdosRenyi(11, 0.45, seed * 17);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {1, 2}, {2, 2}, {2, 4}, {3, 3}}) {
      auto truth = BruteForceMaximalKPlexes(g, k, q);
      ASSERT_TRUE(truth.ok());
      CollectingSink sink;
      uint64_t count = BkReferenceEnumerate(g, k, q, sink);
      EXPECT_EQ(count, truth->size());
      EXPECT_EQ(sink.SortedResults(), *truth)
          << "k=" << k << " q=" << q << " seed=" << seed << "\n"
          << DiffSets(*truth, sink.SortedResults());
    }
  }
}

TEST(BkReference, SupportsSmallQBelowConnectivityThreshold) {
  // Unlike the partitioned engine, the reference accepts q < 2k - 1
  // (it never relies on the two-hop property). A 2-plex of size 2 with
  // disconnected pair must be found with q = 2, k = 3.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {2, 3}});
  auto truth = BruteForceMaximalKPlexes(g, 3, 2);
  ASSERT_TRUE(truth.ok());
  CollectingSink sink;
  BkReferenceEnumerate(g, 3, 2, sink);
  EXPECT_EQ(sink.SortedResults(), *truth);
}

TEST(ListPlex, OptionsMatchPaperCharacterization) {
  EnumOptions options = ListPlexOptions(3, 12);
  EXPECT_EQ(options.k, 3u);
  EXPECT_EQ(options.q, 12u);
  EXPECT_EQ(options.branching, BranchingScheme::kFaplexenWhenPivotInP);
  EXPECT_EQ(options.upper_bound, UpperBoundMode::kNone);
  EXPECT_FALSE(options.pivot_saturation_tiebreak);
  EXPECT_FALSE(options.use_subtask_bound_r1);
  EXPECT_FALSE(options.use_pair_pruning_r2);
}

TEST(Fp, MatchesEngineOnMediumGraphs) {
  for (uint64_t seed : {91ull, 92ull, 93ull}) {
    Graph g = GenerateBarabasiAlbert(120, 7, seed);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 5}, {3, 6}}) {
      auto ours = RunEngine(g, EnumOptions::Ours(k, q));
      CollectingSink sink;
      auto result = FpEnumerate(g, FpOptions(k, q), sink);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(sink.SortedResults(), ours);
    }
  }
}

TEST(Fp, CreatesNoSubtasks) {
  // FP's structural signature: one monolithic task per seed (no S
  // enumeration), so its sub-task counter stays zero.
  Graph g = GenerateBarabasiAlbert(100, 6, 94);
  CollectingSink sink;
  auto result = FpEnumerate(g, FpOptions(2, 5), sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->counters.subtasks, 0u);
  EXPECT_GT(result->counters.branch_calls, 0u);
}

TEST(Fp, RejectsInvalidParameters) {
  Graph g = GenerateErdosRenyi(10, 0.3, 1);
  CollectingSink sink;
  EXPECT_FALSE(FpEnumerate(g, FpOptions(3, 2), sink).ok());
}

TEST(Baselines, AgreeOnKarateClub) {
  auto g = LoadEdgeList(std::string(KPLEX_DATA_DIR) + "/karate.txt");
  ASSERT_TRUE(g.ok());
  for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
           {1, 3}, {2, 5}, {3, 6}, {4, 8}}) {
    auto ours = RunEngine(*g, EnumOptions::Ours(k, q));
    CollectingSink bk;
    BkReferenceEnumerate(*g, k, q, bk);
    EXPECT_EQ(ours, bk.SortedResults()) << "k=" << k << " q=" << q;
    EXPECT_EQ(RunEngine(*g, ListPlexOptions(k, q)), ours);
    CollectingSink fp;
    ASSERT_TRUE(FpEnumerate(*g, FpOptions(k, q), fp).ok());
    EXPECT_EQ(fp.SortedResults(), ours);
  }
}

}  // namespace
}  // namespace kplex
