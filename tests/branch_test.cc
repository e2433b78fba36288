// Targeted edge-case tests of the branch-and-bound engine: structured
// graphs with hand-computable answers, boundary parameter values, and
// degenerate inputs. These complement the randomized cross-validation
// in enumerator_test.cc with cases whose expected behaviour is knowable
// by inspection.

#include "core/branch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "baselines/bk_naive.h"
#include "core/enumerator.h"
#include "core/subtask.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "tests/test_util.h"

// This binary counts operator new calls while `g_count_news` is set. The
// plain operator new is replaced, with the plain and sized deletes that
// free what it returns; the other forms keep the library's own pairs.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace kplex {
namespace {

using testing_util::ResultSet;
using testing_util::RunEngine;

Graph Clique(std::size_t n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return GraphBuilder::FromEdges(n, edges);
}

TEST(BranchEdgeCases, KEqualsOneIsMaximalCliqueEnumeration) {
  // Two triangles sharing an edge: maximal cliques of size >= 3 are
  // exactly the triangles.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                        {2, 3}});
  ResultSet results = RunEngine(g, EnumOptions::Ours(1, 3));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(results[1], (std::vector<VertexId>{1, 2, 3}));
}

TEST(BranchEdgeCases, QAtExactConnectivityBoundary) {
  // q = 2k - 1 is the smallest legal threshold; sweep k at that
  // boundary on a moderately dense random graph vs the BK reference.
  Graph g = GenerateErdosRenyi(25, 0.4, 91);
  for (uint32_t k = 1; k <= 4; ++k) {
    const uint32_t q = 2 * k - 1;
    ResultSet ours = RunEngine(g, EnumOptions::Ours(k, q));
    CollectingSink bk;
    BkReferenceEnumerate(g, k, q, bk);
    EXPECT_EQ(ours, bk.SortedResults()) << "k=" << k;
  }
}

TEST(BranchEdgeCases, CompleteBipartiteGraph) {
  // K_{3,3}: every vertex misses the 2 other same-side vertices plus
  // itself, so the whole graph is a 3-plex of size 6 — and with q = 5
  // (= 2k - 1) it is the unique answer.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId a = 0; a < 3; ++a) {
    for (VertexId b = 3; b < 6; ++b) edges.push_back({a, b});
  }
  Graph g = GraphBuilder::FromEdges(6, edges);
  ResultSet results = RunEngine(g, EnumOptions::Ours(3, 5));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(BranchEdgeCases, DisjointCliquesDoNotMerge) {
  // Two disjoint K5's: with k = 2, q = 5, each clique alone is maximal
  // (no vertex of the other clique can join: it would miss 5 > 2).
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 5, v + 5);
    }
  }
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 5));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(results[1], (std::vector<VertexId>{5, 6, 7, 8, 9}));
}

TEST(BranchEdgeCases, CliqueWithPendantVertex) {
  // K6 plus a pendant attached to vertex 0: the pendant joins 2-plexes
  // only at sizes where its 5 missing links are tolerable — never for
  // k = 2 — so K6 stays the unique answer; the pendant must also not
  // break maximality detection.
  GraphBuilder builder(7);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) builder.AddEdge(u, v);
  }
  builder.AddEdge(0, 6);
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 4));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(BranchEdgeCases, QLargerThanGraph) {
  Graph g = Clique(5);
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 9));
  EXPECT_TRUE(results.empty());
}

TEST(BranchEdgeCases, LargeKRelativeToGraph) {
  // k = 5 on an 8-vertex sparse graph: every vertex tolerates 5 misses,
  // so large chunks qualify. Cross-check against brute force.
  Graph g = GenerateErdosRenyi(8, 0.4, 92);
  auto truth = BruteForceMaximalKPlexes(g, 5, 9);  // q = 2k - 1
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(RunEngine(g, EnumOptions::Ours(5, 9)), *truth);
}

TEST(BranchEdgeCases, RingOfCliquesBridgeVertices) {
  // Cliques of size 5 arranged in a ring, adjacent cliques bridged by
  // one edge. Bridges must not create spurious cross-clique plexes for
  // k = 2, q = 5.
  const std::size_t clique_count = 4, clique_size = 5;
  GraphBuilder builder(clique_count * clique_size);
  for (std::size_t c = 0; c < clique_count; ++c) {
    const VertexId base = static_cast<VertexId>(c * clique_size);
    for (VertexId u = 0; u < clique_size; ++u) {
      for (VertexId v = u + 1; v < clique_size; ++v) {
        builder.AddEdge(base + u, base + v);
      }
    }
    const VertexId next_base =
        static_cast<VertexId>(((c + 1) % clique_count) * clique_size);
    builder.AddEdge(base, next_base);  // bridge
  }
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 5));
  ASSERT_EQ(results.size(), clique_count);
  for (const auto& plex : results) {
    EXPECT_EQ(plex.size(), clique_size);
  }
  // Sanity: matches the slow reference.
  CollectingSink bk;
  BkReferenceEnumerate(g, 2, 5, bk);
  EXPECT_EQ(results, bk.SortedResults());
}

TEST(BranchEdgeCases, GraphSmallerThanQYieldsNothingQuickly) {
  Graph g = Clique(3);
  EnumResult result;
  CollectingSink sink;
  auto run = EnumerateMaximalKPlexes(g, EnumOptions::Ours(2, 10), sink);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_plexes, 0u);
  EXPECT_EQ(run->counters.branch_calls, 0u);  // core reduction kills all
}

// The sub-task of `sg` with the largest candidate set.
TaskState LargestSubtask(const SeedGraph& sg, const EnumOptions& options) {
  TaskState task;
  AlgoCounters counters;
  EnumerateSubtasks(sg, options, counters, [&](TaskState&& state) {
    if (state.c.Count() > task.c.Count()) task = std::move(state);
  });
  return task;
}

template <typename Body>
uint64_t NewsDuring(const Body& body) {
  g_news.store(0);
  g_count_news.store(true);
  body();
  g_count_news.store(false);
  return g_news.load();
}

TEST(BranchEngine, WarmedEngineRunsASubtaskWithoutAllocating) {
  // The child states of both branchings (Ours: include/exclude, Ours_P:
  // Eq (4)-(6)) are reused per recursion depth, so running a sub-task a
  // second time on the same engine allocates nothing: not per branch,
  // not per emitted plex.
  Graph g = GenerateErdosRenyi(60, 0.5, 93);
  const DegeneracyResult degeneracy = ComputeDegeneracy(g);
  for (const EnumOptions& options :
       {EnumOptions::Ours(3, 8), EnumOptions::OursP(3, 8)}) {
    SCOPED_TRACE(static_cast<int>(options.branching));
    auto sg = BuildSeedGraph(g, {}, degeneracy, degeneracy.order[0],
                             options, nullptr);
    ASSERT_TRUE(sg.has_value());
    const TaskState task = LargestSubtask(*sg, options);

    CountingSink sink;
    AlgoCounters counters;
    BranchEngine engine(*sg, options, sink, counters);
    TaskState warm = task;
    engine.Run(warm);
    const uint64_t calls = counters.branch_calls;
    const uint64_t outputs = counters.outputs;
    ASSERT_GT(calls, 100u);
    ASSERT_GT(outputs, 0u);

    TaskState again = task;
    EXPECT_EQ(NewsDuring([&] { engine.Run(again); }), 0u);
    EXPECT_EQ(counters.branch_calls, 2 * calls);
    EXPECT_EQ(counters.outputs, 2 * outputs);
  }
}

TEST(BranchEngine, RetargetedEngineRunsASubtaskWithoutAllocating) {
  // One engine serves a worker's whole run: re-targeting it at another
  // seed graph whose universe fits keeps every buffer, and its results
  // equal a fresh engine's.
  Graph g = GenerateErdosRenyi(60, 0.5, 93);
  const EnumOptions options = EnumOptions::Ours(3, 8);
  const DegeneracyResult degeneracy = ComputeDegeneracy(g);
  auto first = BuildSeedGraph(g, {}, degeneracy, degeneracy.order[0],
                              options, nullptr);
  auto second = BuildSeedGraph(g, {}, degeneracy, degeneracy.order[1],
                               options, nullptr);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  if (second->universe > first->universe) std::swap(first, second);
  const TaskState first_task = LargestSubtask(*first, options);
  const TaskState second_task = LargestSubtask(*second, options);

  CountingSink fresh_sink;
  AlgoCounters fresh;
  BranchEngine fresh_engine(*second, options, fresh_sink, fresh);
  TaskState fresh_state = second_task;
  fresh_engine.Run(fresh_state);
  ASSERT_GT(fresh.branch_calls, 100u);

  CountingSink sink;
  AlgoCounters counters;
  BranchEngine engine(options, sink, counters);
  for (int pass = 0; pass < 2; ++pass) {
    engine.Retarget(*first);
    TaskState a = first_task;
    engine.Run(a);
    TaskState b = second_task;
    const AlgoCounters before = counters;
    const uint64_t news = NewsDuring([&] {
      engine.Retarget(*second);
      engine.Run(b);
    });
    // The first pass warms the engine on both graphs.
    if (pass == 1) EXPECT_EQ(news, 0u);
    EXPECT_EQ(counters.branch_calls - before.branch_calls,
              fresh.branch_calls);
    EXPECT_EQ(counters.outputs - before.outputs, fresh.outputs);
  }
}

}  // namespace
}  // namespace kplex
