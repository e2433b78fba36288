// Unit tests for induced-subgraph extraction.

#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include "graph/builder.h"

namespace kplex {
namespace {

TEST(InducedSubgraph, ExtractsEdgesAndMapping) {
  Graph g = GraphBuilder::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}});
  InducedSubgraph sub = ExtractInduced(g, {1, 2, 4});
  EXPECT_EQ(sub.graph.NumVertices(), 3u);
  EXPECT_EQ(sub.to_original, (std::vector<VertexId>{1, 2, 4}));
  EXPECT_TRUE(sub.graph.HasEdge(0, 1));   // 1-2
  EXPECT_TRUE(sub.graph.HasEdge(0, 2));   // 1-4
  EXPECT_FALSE(sub.graph.HasEdge(1, 2));  // 2-4 not an edge
}

TEST(InducedSubgraph, EmptySelection) {
  Graph g = GraphBuilder::FromEdges(3, {{0, 1}});
  InducedSubgraph sub = ExtractInduced(g, {});
  EXPECT_EQ(sub.graph.NumVertices(), 0u);
}

}  // namespace
}  // namespace kplex
