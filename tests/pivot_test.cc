// Unit tests for pivot selection: minimum degree in G[P ∪ C], the
// saturation tie-break, and re-picking from the pivot's non-neighbors.
// PivotReference pins Select and RepickFromC at every branch width to
// Line 8 applied member by member.

#include "core/pivot.h"

#include <gtest/gtest.h>

#include "core/seed_graph.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "tests/test_util.h"

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

// Line 8 of Algorithm 3 as the paper states it, member by member in
// ascending id order: the smallest d_{P∪C}, then (with the tie-break)
// the largest d̄_P, and a later member wins only if it is strictly
// better. `degree` receives every member's d_{P∪C}.
PivotResult ReferencePivot(const SeedGraph& sg, const TaskState& st,
                           const DynamicBitset& pc, bool tiebreak,
                           std::vector<uint32_t>& degree) {
  PivotResult best;
  bool have = false;
  uint32_t best_nn = 0;
  pc.ForEach([&](std::size_t v) {
    const uint32_t d = static_cast<uint32_t>(
        sg.adj.Row(static_cast<uint32_t>(v)).AndCount(pc));
    degree[v] = d;
    const uint32_t nn =
        tiebreak ? st.NonNeighborsInP(static_cast<uint32_t>(v)) : 0;
    if (!have || d < best.min_degree ||
        (d == best.min_degree && nn > best_nn)) {
      have = true;
      best.vertex = static_cast<uint32_t>(v);
      best.min_degree = d;
      best_nn = nn;
    }
  });
  best.in_p = st.p.Test(best.vertex);
  return best;
}

// Lines 15-16 by the same rule over C \ N(pivot); UINT32_MAX if empty.
uint32_t ReferenceRepick(const SeedGraph& sg, const TaskState& st,
                         uint32_t pivot, bool tiebreak,
                         const std::vector<uint32_t>& degree) {
  uint32_t best = UINT32_MAX;
  st.c.ForEach([&](std::size_t w) {
    const uint32_t v = static_cast<uint32_t>(w);
    if (sg.adj.Test(pivot, v)) return;
    if (best == UINT32_MAX || degree[v] < degree[best] ||
        (degree[v] == degree[best] && tiebreak &&
         st.NonNeighborsInP(v) > st.NonNeighborsInP(best))) {
      best = v;
    }
  });
  return best;
}

// Select<W> and RepickFromC<W> against the references, RepickFromC for
// every member of P that has a non-neighbor in C.
template <std::size_t W>
void ExpectPicksMatchReference(const SeedGraph& sg, const TaskState& st,
                               bool tiebreak) {
  DynamicBitset pc = st.p;
  pc.OrWith(st.c);
  std::vector<uint32_t> degree(sg.universe);
  const PivotResult want = ReferencePivot(sg, st, pc, tiebreak, degree);
  PivotSelector selector(sg, tiebreak);
  const PivotResult got = selector.Select<W>(st, pc.data());
  EXPECT_EQ(got.vertex, want.vertex);
  EXPECT_EQ(got.min_degree, want.min_degree);
  EXPECT_EQ(got.in_p, want.in_p);
  pc.ForEach([&](std::size_t v) {
    EXPECT_EQ(selector.DegreePc(static_cast<uint32_t>(v)), degree[v]);
  });
  st.p.ForEach([&](std::size_t u) {
    const uint32_t pivot = static_cast<uint32_t>(u);
    const uint32_t repick = ReferenceRepick(sg, st, pivot, tiebreak, degree);
    if (repick == UINT32_MAX) return;  // the engine never asks
    EXPECT_EQ(selector.RepickFromC<W>(st, pivot), repick);
  });
}

// Every width the branch body runs at: the any-width instantiation on
// every seed graph, and W = 1 or 2 on the seed graphs of that width.
void ExpectPicksMatchReferenceAtItsWidths(const SeedGraph& sg,
                                          const TaskState& st,
                                          bool tiebreak) {
  ExpectPicksMatchReference<kAnyWidth>(sg, st, tiebreak);
  if (testing_util::WidthClass(sg) == 1) {
    ExpectPicksMatchReference<1>(sg, st, tiebreak);
  } else if (testing_util::WidthClass(sg) == 2) {
    ExpectPicksMatchReference<2>(sg, st, tiebreak);
  }
}

TEST(PivotReference, SelectAndRepickFollowLineEightAtEveryWidth) {
  // Two EnumeratorOrder inputs: seed graphs of one and two words, and of
  // one, two and three-plus words.
  struct Input {
    const char* name;
    Graph graph;
    uint32_t k;
    uint32_t q;
  };
  const Input inputs[] = {
      {"ba-two-words", GenerateBarabasiAlbert(400, 20, 1), 2, 10},
      {"er-wide", GenerateErdosRenyi(150, 0.35, 4), 2, 9},
  };
  Rng rng(2024);
  std::array<uint32_t, 3> states_at_width{};
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    for (const SeedGraph& sg : testing_util::SeedGraphsByWidth(
             in.graph, EnumOptions::Ours(in.k, in.q), 6)) {
      for (int i = 0; i < 20; ++i) {
        const TaskState st = testing_util::RandomKPlexState(sg, in.k, rng);
        ExpectPicksMatchReferenceAtItsWidths(sg, st, true);
        ExpectPicksMatchReferenceAtItsWidths(sg, st, false);
        ++states_at_width[testing_util::WidthClass(sg) - 1];
      }
    }
  }
  for (uint32_t w = 1; w <= 3; ++w) {
    EXPECT_GT(states_at_width[w - 1], 0u) << "no state of width " << w;
  }
}

TEST(PivotReference, PlantedTiesAreDecidedByTheId) {
  // Seed 0 neighbours 1..8. u1 = 1 misses 3, 4, 5 and u2 = 2 misses 6,
  // 7, 8; the rest are edges. With P = {0, u2} and C = {u1, 3..8}, u1
  // and u2 both have d_{P∪C} = 5, the minimum, and d̄_P 0 and 1. 6, 7
  // and 8, u2's non-neighbors in C, all have d_{P∪C} = 7 and d̄_P = 1.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 8; ++v) edges.emplace_back(0, v);
  for (VertexId a = 1; a <= 8; ++a) {
    for (VertexId b = a + 1; b <= 8; ++b) {
      const bool u1_miss = a == 1 && b >= 3 && b <= 5;
      const bool u2_miss = a == 2 && b >= 6;
      if (!u1_miss && !u2_miss) edges.emplace_back(a, b);
    }
  }
  const Graph g = GraphBuilder::FromEdges(9, edges);
  EnumOptions options = EnumOptions::Ours(2, 3);
  options.ordering = VertexOrdering::kById;
  std::optional<SeedGraph> sg;
  testing_util::ForEachSeedGraph(g, options, [&](SeedGraph&& built) {
    if (built.to_global[SeedGraph::kSeed] == 0) sg = std::move(built);
  });
  ASSERT_TRUE(sg.has_value());
  ASSERT_EQ(sg->num_vi, 9u);
  auto local = [&](VertexId v) { return testing_util::LocalIdOf(*sg, v); };

  TaskState st = TaskState::MakeEmpty(*sg);
  st.AddToP(*sg, SeedGraph::kSeed);
  st.AddToP(*sg, local(2));
  st.c.Set(local(1));
  for (VertexId v = 3; v <= 8; ++v) st.c.Set(local(v));
  DynamicBitset pc = st.p;
  pc.OrWith(st.c);

  // The tie-break prefers u2 (one more non-neighbor in P); without it,
  // the smaller id of u1 and u2 wins.
  PivotSelector with_tiebreak(*sg, true);
  const PivotResult on = with_tiebreak.Select<1>(st, pc.data());
  EXPECT_EQ(on.vertex, local(2));
  EXPECT_EQ(on.min_degree, 5u);
  EXPECT_TRUE(on.in_p);
  PivotSelector plain(*sg, false);
  const PivotResult off = plain.Select<1>(st, pc.data());
  EXPECT_EQ(off.vertex, std::min(local(1), local(2)));
  EXPECT_EQ(off.min_degree, 5u);

  // Re-picking from u2: 6, 7 and 8 tie on (d, d̄_P); the smallest id wins.
  const uint32_t first = std::min({local(6), local(7), local(8)});
  EXPECT_EQ(with_tiebreak.RepickFromC<1>(st, local(2)), first);
  EXPECT_EQ(with_tiebreak.RepickFromC<kAnyWidth>(st, local(2)), first);
  EXPECT_EQ(plain.RepickFromC<1>(st, local(2)), first);

  ExpectPicksMatchReferenceAtItsWidths(*sg, st, true);
  ExpectPicksMatchReferenceAtItsWidths(*sg, st, false);
}

}  // namespace
}  // namespace kplex
