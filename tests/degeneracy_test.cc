// Unit tests for core decomposition, degeneracy ordering and k-core
// reduction, including the Theorem 3.5 containment property, and a
// differential test of the ordering and its orientation against a naive
// O(n^2) peel.

#include "graph/degeneracy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

Graph Clique(std::size_t n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return GraphBuilder::FromEdges(n, edges);
}

TEST(Degeneracy, PathGraphIsOneDegenerate) {
  Graph g = GraphBuilder::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto result = ComputeDegeneracy(g);
  EXPECT_EQ(result.degeneracy, 1u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(result.coreness[v], 1u);
}

TEST(Degeneracy, CliqueDegeneracy) {
  auto result = ComputeDegeneracy(Clique(6));
  EXPECT_EQ(result.degeneracy, 5u);
}

TEST(Degeneracy, OrderAndRankAreInverse) {
  Graph g = GenerateBarabasiAlbert(100, 3, 77);
  auto result = ComputeDegeneracy(g);
  ASSERT_EQ(result.order.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(result.rank[result.order[i]], i);
  }
}

TEST(Degeneracy, TieBreakByVertexId) {
  // A 4-cycle: all degrees equal; vertices must peel in id order.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto result = ComputeDegeneracy(g);
  EXPECT_EQ(result.order, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Degeneracy, LaterNeighborsBoundedByDegeneracy) {
  // The defining property the seed-subgraph size bound relies on: every
  // vertex has at most D neighbors later in the ordering.
  Graph g = GenerateErdosRenyi(150, 0.08, 99);
  auto result = ComputeDegeneracy(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t later = 0;
    for (VertexId u : g.Neighbors(v)) {
      if (result.rank[u] > result.rank[v]) ++later;
    }
    EXPECT_LE(later, result.degeneracy);
    EXPECT_EQ(result.Later(v).size(), later);
  }
}

TEST(Degeneracy, CorenessMonotoneAlongOrder) {
  Graph g = GenerateBarabasiAlbert(200, 4, 5);
  auto result = ComputeDegeneracy(g);
  for (std::size_t i = 1; i < result.order.size(); ++i) {
    EXPECT_LE(result.coreness[result.order[i - 1]],
              result.coreness[result.order[i]]);
  }
}

// The reference peel: O(n^2), no heap. Each step scans every remaining
// vertex for the least (current degree, id) and removes it.
DegeneracyResult NaivePeel(const Graph& g) {
  const std::size_t n = g.NumVertices();
  DegeneracyResult ref;
  ref.rank.assign(n, 0);
  ref.coreness.assign(n, 0);
  std::vector<uint32_t> degree(n);
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(g.Degree(v));
  }
  std::vector<bool> removed(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    VertexId best = 0;
    bool found = false;
    for (VertexId v = 0; v < n; ++v) {
      if (removed[v]) continue;
      if (!found || degree[v] < degree[best]) best = v;
      found = true;
    }
    removed[best] = true;
    ref.degeneracy = std::max(ref.degeneracy, degree[best]);
    ref.coreness[best] = ref.degeneracy;
    ref.rank[best] = static_cast<uint32_t>(step);
    ref.order.push_back(best);
    for (VertexId u : g.Neighbors(best)) {
      if (!removed[u]) --degree[u];
    }
  }
  return ref;
}

Graph Star(std::size_t leaves, VertexId center) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v <= leaves; ++v) {
    if (v != center) edges.push_back({center, v});
  }
  return GraphBuilder::FromEdges(leaves + 1, edges);
}

TEST(Degeneracy, MatchesNaivePeelExactly) {
  std::vector<std::pair<std::string, Graph>> cases;
  for (uint64_t seed : {1, 2, 3}) {
    const std::string s = " seed=" + std::to_string(seed);
    for (double p : {0.005, 0.03, 0.1, 0.4}) {
      cases.push_back({"ER p=" + std::to_string(p) + s,
                       GenerateErdosRenyi(220, p, seed)});
    }
    for (std::size_t attach : {1, 3, 8, 20}) {
      cases.push_back({"BA attach=" + std::to_string(attach) + s,
                       GenerateBarabasiAlbert(300, attach, seed)});
    }
    for (double beta : {0.05, 0.3, 1.0}) {
      cases.push_back({"WS beta=" + std::to_string(beta) + s,
                       GenerateWattsStrogatz(200, 6, beta, seed)});
    }
  }
  cases.push_back({"empty", Graph()});
  cases.push_back({"isolated", GraphBuilder::FromEdges(9, {})});
  cases.push_back({"isolated among edges",
                   GraphBuilder::FromEdges(8, {{1, 2}, {2, 5}, {5, 1},
                                               {6, 7}})});
  // A K5, a path and a triangle in separate components, ids interleaved.
  cases.push_back({"components",
                   GraphBuilder::FromEdges(
                       12, {{0, 3}, {0, 6}, {0, 9}, {0, 11}, {3, 6}, {3, 9},
                            {3, 11}, {6, 9}, {6, 11}, {9, 11}, {1, 4},
                            {4, 7}, {7, 10}, {2, 5}, {5, 8}, {8, 2}})});
  cases.push_back({"star centred at 0", Star(30, 0)});
  cases.push_back({"star centred at 17", Star(30, 17)});
  cases.push_back({"clique", Clique(11)});
  cases.push_back({"12-regular ring",
                   GenerateWattsStrogatz(120, 12, 0.0, 4)});
  // Every vertex ties with every other at each step of the peel.
  cases.push_back({"perfect matching",
                   GraphBuilder::FromEdges(
                       10, {{0, 9}, {1, 8}, {2, 7}, {3, 6}, {4, 5}})});
  cases.push_back({"4-cycles",
                   GraphBuilder::FromEdges(
                       8, {{0, 4}, {4, 1}, {1, 5}, {5, 0}, {2, 6}, {6, 3},
                           {3, 7}, {7, 2}})});
  for (const auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const DegeneracyResult want = NaivePeel(g);
    const DegeneracyResult got = ComputeDegeneracy(g);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.rank, want.rank);
    EXPECT_EQ(got.coreness, want.coreness);
    EXPECT_EQ(got.degeneracy, want.degeneracy);
    testing_util::ExpectOrientedBy(g, want.rank, got);
  }
}

TEST(KCore, ReduceRemovesLowDegreeVertices) {
  // Triangle + pendant: the 2-core is the triangle.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  auto core = ReduceToCore(g, 2);
  EXPECT_EQ(core.graph.NumVertices(), 3u);
  EXPECT_EQ(core.graph.NumEdges(), 3u);
  EXPECT_EQ(core.to_original, (std::vector<VertexId>{0, 1, 2}));
}

TEST(KCore, EmptyWhenThresholdTooHigh) {
  Graph g = Clique(4);
  auto core = ReduceToCore(g, 4);
  EXPECT_EQ(core.graph.NumVertices(), 0u);
}

TEST(KCore, ZeroCoreIsIdentity) {
  Graph g = GenerateErdosRenyi(30, 0.1, 3);
  auto core = ReduceToCore(g, 0);
  EXPECT_EQ(core.graph.NumVertices(), g.NumVertices());
  EXPECT_EQ(core.graph.NumEdges(), g.NumEdges());
}

TEST(KCore, CoreMinimumDegreeHolds) {
  Graph g = GenerateBarabasiAlbert(120, 3, 8);
  for (uint32_t c : {2u, 3u, 4u}) {
    auto core = ReduceToCore(g, c);
    for (VertexId v = 0; v < core.graph.NumVertices(); ++v) {
      EXPECT_GE(core.graph.Degree(v), c);
    }
  }
}

TEST(KCore, CorenessConsistentWithCores) {
  Graph g = GenerateErdosRenyi(80, 0.1, 21);
  auto degeneracy = ComputeDegeneracy(g);
  for (uint32_t c = 1; c <= degeneracy.degeneracy; ++c) {
    auto core = ReduceToCore(g, c);
    std::size_t expected = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (degeneracy.coreness[v] >= c) ++expected;
    }
    EXPECT_EQ(core.graph.NumVertices(), expected) << "c=" << c;
  }
}

}  // namespace
}  // namespace kplex
