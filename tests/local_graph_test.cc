// Unit tests for the dense LocalGraph and induced-subgraph extraction.

#include "graph/local_graph.h"

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/subgraph.h"
#include "util/bitset.h"

namespace kplex {
namespace {

TEST(LocalGraph, EdgesAndDegrees) {
  LocalGraph lg(5);
  lg.AddEdge(0, 1);
  lg.AddEdge(0, 2);
  lg.AddEdge(3, 4);
  EXPECT_EQ(lg.size(), 5u);
  EXPECT_TRUE(lg.HasEdge(0, 1));
  EXPECT_TRUE(lg.HasEdge(1, 0));
  EXPECT_FALSE(lg.HasEdge(1, 2));
  DynamicBitset all(5);
  all.SetAll();
  EXPECT_EQ(lg.DegreeIn(0, all), 2u);
  EXPECT_EQ(lg.DegreeIn(4, all), 1u);
}

TEST(LocalGraph, DuplicateAddIsIdempotent) {
  LocalGraph lg(3);
  lg.AddEdge(0, 1);
  lg.AddEdge(0, 1);
  lg.AddEdge(1, 0);
  EXPECT_TRUE(lg.HasEdge(0, 1));
  EXPECT_EQ(lg.Row(0).Count(), 1u);
  EXPECT_EQ(lg.Row(1).Count(), 1u);
  EXPECT_EQ(lg.Row(2).Count(), 0u);
}

TEST(LocalGraph, DegreeInMask) {
  LocalGraph lg(6);
  lg.AddEdge(0, 1);
  lg.AddEdge(0, 2);
  lg.AddEdge(0, 3);
  DynamicBitset mask(6);
  mask.Set(1);
  mask.Set(3);
  mask.Set(5);
  EXPECT_EQ(lg.DegreeIn(0, mask), 2u);
}

TEST(LocalGraph, RowsArePrefixOfAlignedMatrix) {
  LocalGraph lg(70);
  lg.AddEdge(0, 69);
  lg.AddEdge(0, 1);
  BitSpan row = lg.Row(0);
  EXPECT_EQ(row.num_bits, 70u);
  EXPECT_EQ(row.Count(), 2u);
  EXPECT_TRUE(row.Test(69));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(row.words) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(lg.Row(1).words) % 64, 0u);
}

// Row counts and masked degrees over a three-word universe, with the
// mask ending one bit past the first word boundary.
TEST(LocalGraph, InvariantsHoldUnderForcedBaseline) {
  LocalGraph lg(130);
  for (uint32_t v = 1; v < 130; ++v) lg.AddEdge(0, v);
  lg.AddEdge(1, 2);
  DynamicBitset mask(130);
  mask.SetRange(0, 65);
  EXPECT_EQ(lg.Row(0).Count(), 129u);
  EXPECT_EQ(lg.DegreeIn(0, mask), 64u);
  EXPECT_EQ(lg.DegreeIn(1, mask), 2u);
  EXPECT_EQ(lg.DegreeIn(129, mask), 1u);
}

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
