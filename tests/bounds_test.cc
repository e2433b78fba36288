// Admissibility of every upper bound (Theorems 5.3, 5.5, 5.7): the bound
// must never be smaller than the size of the largest k-plex actually
// reachable from the bounded state. Verified by exhaustive search inside
// seed subgraphs of random graphs. BoundReference pins the Eq (3) and
// sub-task bounds at every branch width to Algorithm 4 as stated.

#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/seed_graph.h"
#include "core/subtask.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

// True iff `members` (local ids) induce a k-plex in the seed graph.
bool IsLocalKPlex(const SeedGraph& sg, const DynamicBitset& members,
                  uint32_t k) {
  const std::size_t size = members.Count();
  bool ok = true;
  members.ForEach([&](std::size_t v) {
    const std::size_t degree =
        sg.adj.Row(static_cast<uint32_t>(v)).AndCount(members);
    if (size - degree > k) ok = false;
  });
  return ok;
}

// Largest k-plex containing `base` using any subset of `candidates`
// (exhaustive; |candidates| must stay small).
uint32_t MaxReachableKPlex(const SeedGraph& sg, const DynamicBitset& base,
                           const std::vector<uint32_t>& candidates,
                           uint32_t k) {
  uint32_t best = 0;
  const std::size_t m = candidates.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    DynamicBitset members = base;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1) members.Set(candidates[i]);
    }
    if (IsLocalKPlex(sg, members, k)) {
      best = std::max(best, static_cast<uint32_t>(members.Count()));
    }
  }
  return best;
}

struct BoundParam {
  std::size_t n;
  int edge_percent;
  uint32_t k;
  uint32_t q;
  uint64_t seed;
};

class BoundAdmissibility : public ::testing::TestWithParam<BoundParam> {};

TEST_P(BoundAdmissibility, SubtaskAndSupportBoundsNeverUnderestimate) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.edge_percent / 100.0, p.seed);
  EnumOptions options = EnumOptions::Ours(p.k, p.q);
  options.use_subtask_bound_r1 = false;  // keep all sub-tasks for probing
  CoreReduction core = ReduceToCore(g, p.q - p.k);
  if (core.graph.NumVertices() == 0) GTEST_SKIP() << "empty core";
  DegeneracyResult degeneracy = ComputeDegeneracy(core.graph);

  BoundScratch scratch;
  AlgoCounters counters;
  uint64_t states_probed = 0;
  for (VertexId seed = 0; seed < core.graph.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(core.graph, core.to_original, degeneracy,
                             degeneracy.order[seed], options, &counters);
    if (!sg.has_value()) continue;
    EnumerateSubtasks(*sg, options, counters, [&](TaskState&& task) {
      std::vector<uint32_t> candidates = task.c.ToVector();
      if (candidates.size() > 16) return;  // keep brute force tractable
      ++states_probed;

      // Theorem 5.7 sub-task bound.
      const uint32_t true_max =
          MaxReachableKPlex(*sg, task.p, candidates, p.k);
      const uint32_t ub_subtask = UbSubtask(*sg, task, p.k, scratch);
      EXPECT_GE(ub_subtask, true_max) << "Theorem 5.7 bound underestimates";

      // Theorem 5.5 / FP-sorted bounds for every pivot choice in C.
      for (uint32_t vp : candidates) {
        // Only pivots that keep P ∪ {vp} a k-plex are ever bounded.
        DynamicBitset with_pivot = task.p;
        with_pivot.Set(vp);
        if (!IsLocalKPlex(*sg, with_pivot, p.k)) continue;
        std::vector<uint32_t> rest;
        for (uint32_t c : candidates) {
          if (c != vp) rest.push_back(c);
        }
        const uint32_t truth =
            MaxReachableKPlex(*sg, with_pivot, rest, p.k);
        const uint32_t ub55 = UbSupport(*sg, task, vp, p.k, scratch);
        EXPECT_GE(ub55, truth) << "Theorem 5.5 bound underestimates";
        const uint32_t ub_fp =
            UbSupportSorted(*sg, task, vp, p.k, scratch);
        EXPECT_GE(ub_fp, truth) << "FP-style bound underestimates";
        const uint32_t ub53 = UbDegree(*sg, task, vp, p.k);
        EXPECT_GE(ub53, truth) << "Theorem 5.3 bound underestimates";
      }
    });
  }
  EXPECT_GT(states_probed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BoundAdmissibility,
    ::testing::Values(BoundParam{12, 50, 2, 3, 71},
                      BoundParam{12, 70, 2, 4, 72},
                      BoundParam{13, 60, 3, 5, 73},
                      BoundParam{14, 50, 2, 4, 74},
                      BoundParam{14, 65, 3, 6, 75},
                      BoundParam{12, 85, 4, 7, 76},
                      BoundParam{13, 80, 4, 8, 77},
                      BoundParam{15, 45, 2, 5, 78}));

// |K| of Algorithm 4 as the paper states it, candidates visited in
// `order`: each joins K unless the first of its scarcest non-neighbors
// in P (ascending ids, strict minimum) has no support left; joining
// spends one unit of that support.
uint32_t ReferenceKSize(const SeedGraph& sg, const TaskState& st, uint32_t k,
                        const std::vector<uint32_t>& order) {
  std::vector<int32_t> sup(sg.universe, 0);
  st.p.ForEach([&](std::size_t u) {
    sup[u] = st.Support(static_cast<uint32_t>(u), k);
  });
  uint32_t joined = 0;
  for (uint32_t w : order) {
    uint32_t scarcest = UINT32_MAX;
    st.p.ForEach([&](std::size_t u) {
      if (sg.adj.Test(w, static_cast<uint32_t>(u))) return;
      if (scarcest == UINT32_MAX || sup[u] < sup[scarcest]) {
        scarcest = static_cast<uint32_t>(u);
      }
    });
    if (scarcest != UINT32_MAX) {
      if (sup[scarcest] <= 0) continue;
      --sup[scarcest];
    }
    ++joined;
  }
  return joined;
}

// The pivot's neighbors in C, ascending, or in FP's order: fewest
// non-neighbors in P first, then ascending.
std::vector<uint32_t> PivotNeighborsInC(const SeedGraph& sg,
                                        const TaskState& st, uint32_t pivot,
                                        bool fp_order) {
  std::vector<uint32_t> ws;
  st.c.ForEach([&](std::size_t w) {
    if (sg.adj.Test(pivot, static_cast<uint32_t>(w))) {
      ws.push_back(static_cast<uint32_t>(w));
    }
  });
  if (fp_order) {
    std::stable_sort(ws.begin(), ws.end(), [&](uint32_t a, uint32_t b) {
      return st.NonNeighborsInP(a) < st.NonNeighborsInP(b);
    });
  }
  return ws;
}

uint32_t ReferenceUbSupport(const SeedGraph& sg, const TaskState& st,
                            uint32_t pivot, uint32_t k, bool fp_order) {
  return st.p_size + static_cast<uint32_t>(st.Support(pivot, k)) +
         ReferenceKSize(sg, st, k, PivotNeighborsInC(sg, st, pivot, fp_order));
}

uint32_t ReferenceUbSubtask(const SeedGraph& sg, const TaskState& st,
                            uint32_t k) {
  const std::vector<uint32_t> c = st.c.ToVector();
  uint32_t min_deg = UINT32_MAX;
  st.p.ForEach([&](std::size_t u) {
    min_deg = std::min(min_deg, sg.deg_vi[u]);
  });
  return std::min(st.p_size + ReferenceKSize(sg, st, k, c), min_deg + k);
}

// The Eq (3) bounds at width W for every candidate pivot, against the
// references.
template <std::size_t W>
void ExpectSupportBoundsMatchReference(const SeedGraph& sg,
                                       const TaskState& st, uint32_t k,
                                       BoundScratch& scratch) {
  st.c.ForEach([&](std::size_t v) {
    const uint32_t vp = static_cast<uint32_t>(v);
    EXPECT_EQ((UbSupport<W>(sg, st, vp, k, scratch)),
              ReferenceUbSupport(sg, st, vp, k, false));
    EXPECT_EQ((UbSupportSorted<W>(sg, st, vp, k, scratch)),
              ReferenceUbSupport(sg, st, vp, k, true));
  });
}

void ExpectBoundsMatchReference(const SeedGraph& sg, const TaskState& st,
                                uint32_t k, BoundScratch& scratch) {
  EXPECT_EQ(UbSubtask(sg, st, k, scratch), ReferenceUbSubtask(sg, st, k));
  ExpectSupportBoundsMatchReference<kAnyWidth>(sg, st, k, scratch);
  if (testing_util::WidthClass(sg) == 1) {
    ExpectSupportBoundsMatchReference<1>(sg, st, k, scratch);
  } else if (testing_util::WidthClass(sg) == 2) {
    ExpectSupportBoundsMatchReference<2>(sg, st, k, scratch);
  }
}

TEST(BoundReference, SupportBoundsFollowAlgorithmFourAtEveryWidth) {
  // Two EnumeratorOrder inputs: seed graphs of one and two words, and of
  // one, two and three-plus words; k = 3 as well, for supports up to 3.
  struct Input {
    const char* name;
    Graph graph;
    uint32_t k;
    uint32_t q;
  };
  const Input inputs[] = {
      {"ba-two-words", GenerateBarabasiAlbert(400, 20, 1), 2, 10},
      {"er-wide", GenerateErdosRenyi(150, 0.35, 4), 2, 9},
      {"er-wide k=3", GenerateErdosRenyi(150, 0.35, 4), 3, 10},
  };
  Rng rng(2025);
  BoundScratch scratch;
  std::array<uint32_t, 3> states_at_width{};
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    for (const SeedGraph& sg : testing_util::SeedGraphsByWidth(
             in.graph, EnumOptions::Ours(in.k, in.q), 4)) {
      for (int i = 0; i < 12; ++i) {
        const TaskState st = testing_util::RandomKPlexState(sg, in.k, rng);
        ExpectBoundsMatchReference(sg, st, in.k, scratch);
        ++states_at_width[testing_util::WidthClass(sg) - 1];
      }
    }
  }
  for (uint32_t w = 1; w <= 3; ++w) {
    EXPECT_GT(states_at_width[w - 1], 0u) << "no state of width " << w;
  }
}

TEST(BoundReference, PlantedSupportTieSpendsTheSmallerId) {
  // k = 3. P = {0, p1..p4} = {0, 1, 2, 3, 4} misses the pairs 1-3 and
  // 2-4, so p1..p4 each have support 1. The pivot 5 neighbors all of
  // them and both candidates; w1 = 6 misses p1 and p2, w2 = 7 misses p1
  // only. Vertex 8 (outside the state) lifts the degrees in V_i so that
  // Theorem 5.3 does not decide the sub-task bound.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 8; ++v) edges.emplace_back(0, v);
  edges.insert(edges.end(), {{1, 2}, {1, 4}, {2, 3}, {3, 4}});
  for (VertexId v : {1, 2, 3, 4, 6, 7}) edges.emplace_back(5, v);
  for (VertexId v : {3, 4}) edges.emplace_back(6, v);
  for (VertexId v : {2, 3, 4}) edges.emplace_back(7, v);
  edges.emplace_back(6, 7);
  for (VertexId v : {1, 2, 3, 4}) edges.emplace_back(8, v);
  const Graph g = GraphBuilder::FromEdges(9, edges);
  const uint32_t k = 3;
  EnumOptions options = EnumOptions::Ours(k, 4);
  options.ordering = VertexOrdering::kById;
  std::optional<SeedGraph> sg;
  testing_util::ForEachSeedGraph(g, options, [&](SeedGraph&& built) {
    if (built.to_global[SeedGraph::kSeed] == 0) sg = std::move(built);
  });
  ASSERT_TRUE(sg.has_value());
  ASSERT_EQ(sg->num_vi, 9u);
  auto local = [&](VertexId v) { return testing_util::LocalIdOf(*sg, v); };

  TaskState st = TaskState::MakeEmpty(*sg);
  for (VertexId v = 0; v <= 4; ++v) st.AddToP(*sg, local(v));
  for (VertexId v : {5, 6, 7}) st.c.Set(local(v));
  ASSERT_EQ(local(1) < local(2), true) << "the test reads p1 as first";
  for (VertexId v = 1; v <= 4; ++v) ASSERT_EQ(st.Support(local(v), k), 1);

  // w1's scarcest non-neighbors tie (p1 and p2, support 1); spending p1's
  // unit, the smaller id, leaves w2 none. |P| + sup(5) + |K| = 5 + 3 + 1.
  BoundScratch scratch;
  EXPECT_EQ(UbSupport<1>(*sg, st, local(5), k, scratch), 9u);
  EXPECT_EQ(UbSupport<kAnyWidth>(*sg, st, local(5), k, scratch), 9u);
  // FP's order visits w2 first (one non-neighbor in P): it spends p1's
  // unit, and w1's scarcest is then p1, exhausted.
  EXPECT_EQ(UbSupportSorted<1>(*sg, st, local(5), k, scratch), 9u);
  // Sub-task: K = {5, w1}; min(5 + 2, min deg_vi 5 + 3).
  EXPECT_EQ(UbSubtask(*sg, st, k, scratch), 7u);
  ExpectBoundsMatchReference(*sg, st, k, scratch);
}

}  // namespace
}  // namespace kplex
