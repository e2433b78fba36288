// Correctness of the reverse-search enumerator: it must agree with
// brute force and the main engine, despite sharing no search machinery.

#include "baselines/reverse_search.h"

#include <gtest/gtest.h>

#include "baselines/bk_naive.h"
#include "core/enumerator.h"
#include "core/kplex_verify.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::DiffSets;
using testing_util::RunEngine;

TEST(Maximalize, ExtendsToMaximal) {
  Graph g = GenerateErdosRenyi(20, 0.4, 7);
  for (VertexId v = 0; v < 20; ++v) {
    auto plex = MaximalizeKPlex(g, {v}, 2);
    EXPECT_TRUE(IsMaximalKPlex(g, plex, 2));
    EXPECT_TRUE(std::find(plex.begin(), plex.end(), v) != plex.end());
  }
}

TEST(Maximalize, AlreadyMaximalIsFixpoint) {
  Graph g = GraphBuilder::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}});
  auto triangle = MaximalizeKPlex(g, {0, 1, 2}, 1);
  EXPECT_EQ(triangle, (std::vector<VertexId>{0, 1, 2}));
}

struct RsParam {
  std::size_t n;
  int edge_percent;
  uint32_t k;
  uint32_t q;
  uint64_t seed;
};

class ReverseSearchSweep : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReverseSearchSweep, MatchesBruteForce) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.edge_percent / 100.0, p.seed);
  auto truth = BruteForceMaximalKPlexes(g, p.k, p.q);
  ASSERT_TRUE(truth.ok());
  CollectingSink sink;
  auto count = ReverseSearchEnumerate(g, p.k, p.q, sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, truth->size());
  EXPECT_EQ(sink.SortedResults(), *truth)
      << DiffSets(*truth, sink.SortedResults());
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ReverseSearchSweep,
    ::testing::Values(RsParam{9, 40, 1, 2, 301}, RsParam{9, 60, 2, 3, 302},
                      RsParam{10, 50, 2, 4, 303}, RsParam{10, 30, 2, 2, 304},
                      RsParam{11, 45, 3, 5, 305}, RsParam{11, 65, 3, 4, 306},
                      // q below 2k-1: the partitioned engine cannot run
                      // these, reverse search can (no two-hop property).
                      RsParam{10, 50, 3, 2, 307}, RsParam{9, 55, 4, 3, 308}),
    [](const ::testing::TestParamInfo<RsParam>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + "p" + std::to_string(p.edge_percent) +
             "k" + std::to_string(p.k) + "q" + std::to_string(p.q) + "s" +
             std::to_string(p.seed);
    });

TEST(ReverseSearch, HandlesDisconnectedSolutions) {
  // Two disjoint K2's form a maximal 3-plex of size 4 (each vertex
  // misses 2 others + itself = 3). Reverse search must find it even
  // though it is disconnected — no branch-and-bound variant can.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {2, 3}});
  CollectingSink sink;
  auto count = ReverseSearchEnumerate(g, 3, 4, sink);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, 1u);
  EXPECT_EQ(sink.SortedResults()[0], (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(ReverseSearch, AgreesWithEngineOnLargerGraph) {
  Graph g = GenerateBarabasiAlbert(40, 4, 309);
  const uint32_t k = 2, q = 4;
  CollectingSink sink;
  ASSERT_TRUE(ReverseSearchEnumerate(g, k, q, sink).ok());
  EXPECT_EQ(sink.SortedResults(), RunEngine(g, EnumOptions::Ours(k, q)));
}

}  // namespace
}  // namespace kplex
