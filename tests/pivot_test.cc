// Unit tests for pivot selection: minimum degree in G[P ∪ C], the
// saturation tie-break, and re-picking from the pivot's non-neighbors.

#include "core/pivot.h"

#include <gtest/gtest.h>

#include "core/seed_graph.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"

namespace kplex {
namespace {

class PivotFixture : public ::testing::Test {
 protected:
  // Builds a seed graph for the first viable seed of a random graph.
  bool Build(uint64_t seed_rng, uint32_t k, uint32_t q) {
    graph_ = GenerateErdosRenyi(24, 0.45, seed_rng);
    options_ = EnumOptions::Ours(k, q);
    auto degeneracy = ComputeDegeneracy(graph_);
    for (VertexId s = 0; s < graph_.NumVertices(); ++s) {
      auto sg = BuildSeedGraph(graph_, {}, degeneracy, degeneracy.order[s],
                               options_, nullptr);
      if (sg.has_value() && sg->num_n1 >= 3) {
        sg_ = std::move(sg);
        return true;
      }
    }
    return false;
  }

  Graph graph_;
  EnumOptions options_;
  std::optional<SeedGraph> sg_;
};

TEST_F(PivotFixture, SelectsMinimumDegreeVertex) {
  ASSERT_TRUE(Build(41, 2, 4));
  TaskState st = TaskState::MakeEmpty(*sg_);
  st.AddToP(*sg_, SeedGraph::kSeed);
  st.c.SetRange(1, 1 + sg_->num_n1);

  DynamicBitset pc = st.p;
  pc.OrWith(st.c);
  PivotSelector selector(*sg_);
  PivotResult pivot = selector.Select(st, pc);

  // Verify minimality against a direct computation.
  uint32_t true_min = UINT32_MAX;
  pc.ForEach([&](std::size_t v) {
    true_min = std::min(
        true_min,
        static_cast<uint32_t>(sg_->adj.Row(static_cast<uint32_t>(v)).AndCount(pc)));
  });
  EXPECT_EQ(pivot.min_degree, true_min);
  EXPECT_EQ(selector.DegreePc(pivot.vertex), true_min);
  EXPECT_TRUE(pc.Test(pivot.vertex));
}

TEST_F(PivotFixture, SaturationTieBreakPrefersMoreNonNeighbors) {
  ASSERT_TRUE(Build(43, 3, 5));
  TaskState st = TaskState::MakeEmpty(*sg_);
  st.AddToP(*sg_, SeedGraph::kSeed);
  st.c.SetRange(1, 1 + sg_->num_n1);
  DynamicBitset pc = st.p;
  pc.OrWith(st.c);

  PivotSelector with_tiebreak(*sg_, /*saturation_tiebreak=*/true);
  PivotResult pivot = with_tiebreak.Select(st, pc);
  // Among all min-degree vertices, the chosen one maximizes d̄_P.
  pc.ForEach([&](std::size_t v) {
    if (with_tiebreak.DegreePc(static_cast<uint32_t>(v)) == pivot.min_degree) {
      EXPECT_GE(st.NonNeighborsInP(pivot.vertex),
                st.NonNeighborsInP(static_cast<uint32_t>(v)));
    }
  });
}

TEST_F(PivotFixture, NoTieBreakPicksSmallestId) {
  ASSERT_TRUE(Build(47, 2, 4));
  TaskState st = TaskState::MakeEmpty(*sg_);
  st.AddToP(*sg_, SeedGraph::kSeed);
  st.c.SetRange(1, 1 + sg_->num_n1);
  DynamicBitset pc = st.p;
  pc.OrWith(st.c);

  PivotSelector plain(*sg_, /*saturation_tiebreak=*/false);
  PivotResult pivot = plain.Select(st, pc);
  // No vertex with the same degree and a smaller id exists.
  pc.ForEach([&](std::size_t v) {
    if (v < pivot.vertex) {
      EXPECT_NE(plain.DegreePc(static_cast<uint32_t>(v)), pivot.min_degree);
    }
  });
}

TEST_F(PivotFixture, RepickReturnsNonNeighborInC) {
  ASSERT_TRUE(Build(53, 2, 4));
  TaskState st = TaskState::MakeEmpty(*sg_);
  st.AddToP(*sg_, SeedGraph::kSeed);
  st.c.SetRange(1, 1 + sg_->num_n1);
  // Put one N2 vertex into P to create non-neighbor structure.
  const uint32_t n2 = 1 + sg_->num_n1;
  if (n2 == sg_->num_vi) GTEST_SKIP() << "no N2 vertex";
  st.AddToP(*sg_, n2);

  DynamicBitset pc = st.p;
  pc.OrWith(st.c);
  PivotSelector selector(*sg_);
  selector.Select(st, pc);

  // Re-pick from the non-neighbors of the N2 member (which has at least
  // one non-neighbor in C whenever C ⊄ N(n2)).
  DynamicBitset non_nbrs = st.c;
  non_nbrs.AndNotWith(sg_->adj.Row(n2));
  if (non_nbrs.None()) GTEST_SKIP() << "no non-neighbor to re-pick";
  uint32_t repicked = selector.RepickFromC(st, n2);
  ASSERT_NE(repicked, UINT32_MAX);
  EXPECT_TRUE(st.c.Test(repicked));
  EXPECT_FALSE(sg_->adj.Test(n2, repicked));
}

}  // namespace
}  // namespace kplex
