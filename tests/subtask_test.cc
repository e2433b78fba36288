// Properties of the sub-task enumeration (Algorithm 2, Line 7): the
// S-sets form a prefix-closed family of valid k-plexes, partition the
// result space, and R1 pruning never removes a productive sub-task.

#include "core/subtask.h"

#include <gtest/gtest.h>

#include <set>

#include "core/branch.h"
#include "core/enumerator.h"
#include "core/seed_graph.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::RunEngine;

struct CollectedTask {
  std::vector<uint32_t> s_members;  // local ids of S
  TaskState state;
};

std::vector<CollectedTask> CollectTasks(const SeedGraph& sg,
                                        const EnumOptions& options) {
  std::vector<CollectedTask> tasks;
  AlgoCounters counters;
  EnumerateSubtasks(sg, options, counters, [&](TaskState&& state) {
    CollectedTask t;
    state.p.ForEach([&](std::size_t v) {
      if (v != SeedGraph::kSeed) t.s_members.push_back(static_cast<uint32_t>(v));
    });
    t.state = std::move(state);
    tasks.push_back(std::move(t));
  });
  return tasks;
}

class SubtaskFixture : public ::testing::Test {
 protected:
  void BuildAll(uint64_t seed, uint32_t k, uint32_t q) {
    graph_ = GenerateErdosRenyi(30, 0.35, seed);
    options_ = EnumOptions::Ours(k, q);
    options_.use_subtask_bound_r1 = false;
    degeneracy_ = ComputeDegeneracy(graph_);
  }

  Graph graph_;
  EnumOptions options_;
  DegeneracyResult degeneracy_;
};

TEST_F(SubtaskFixture, SetsAreUniqueValidAndSizeBounded) {
  BuildAll(31, 3, 5);
  for (VertexId seed = 0; seed < graph_.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(graph_, {}, degeneracy_, seed, options_, nullptr);
    if (!sg.has_value()) continue;
    auto tasks = CollectTasks(*sg, options_);
    ASSERT_FALSE(tasks.empty());  // S = {} is always emitted
    DynamicBitset n1(sg->universe);
    n1.SetRange(1, 1 + sg->num_n1);
    std::set<std::vector<uint32_t>> seen;
    for (const auto& task : tasks) {
      // |S| <= k - 1.
      EXPECT_LE(task.s_members.size(), options_.k - 1);
      // Unique.
      EXPECT_TRUE(seen.insert(task.s_members).second);
      // All S members are N2 vertices.
      for (uint32_t v : task.s_members) {
        EXPECT_GT(v, sg->num_n1);
        EXPECT_LT(v, sg->num_vi);
      }
      // P is a valid k-plex: every member within budget.
      task.state.p.ForEach([&](std::size_t u) {
        EXPECT_LE(task.state.p_size - task.state.dp[u], options_.k);
      });
      // C lies in N1; X never intersects P or C.
      EXPECT_TRUE(task.state.c.IsSubsetOf(n1));
      EXPECT_FALSE(task.state.x.Intersects(task.state.p));
      EXPECT_FALSE(task.state.x.Intersects(task.state.c));
    }
  }
}

TEST_F(SubtaskFixture, EmptySIsFirstAndHasFullCandidates) {
  BuildAll(32, 2, 4);
  for (VertexId seed = 0; seed < 10; ++seed) {
    auto sg = BuildSeedGraph(graph_, {}, degeneracy_, seed, options_, nullptr);
    if (!sg.has_value()) continue;
    auto tasks = CollectTasks(*sg, options_);
    ASSERT_FALSE(tasks.empty());
    EXPECT_TRUE(tasks[0].s_members.empty());
    DynamicBitset n1(sg->universe);
    n1.SetRange(1, 1 + sg->num_n1);
    EXPECT_EQ(tasks[0].state.c, n1);
  }
}

TEST(SubtaskPruning, R1OnlyRemovesUnproductiveSubtasks) {
  // With and without R1 the final result set must be identical, while
  // R1 must strictly reduce (or keep) the number of dispatched tasks.
  Graph g = GenerateBarabasiAlbert(150, 8, 33);
  const uint32_t k = 3, q = 8;

  EnumOptions with_r1 = EnumOptions::Ours(k, q);
  EnumOptions without_r1 = EnumOptions::Ours(k, q);
  without_r1.use_subtask_bound_r1 = false;

  CollectingSink sink_with, sink_without;
  auto r_with = EnumerateMaximalKPlexes(g, with_r1, sink_with);
  auto r_without = EnumerateMaximalKPlexes(g, without_r1, sink_without);
  ASSERT_TRUE(r_with.ok() && r_without.ok());
  EXPECT_EQ(sink_with.SortedResults(), sink_without.SortedResults());
  EXPECT_LE(r_with->counters.subtasks - r_with->counters.subtasks_pruned_r1,
            r_without->counters.subtasks);
  EXPECT_GT(r_with->counters.subtasks_pruned_r1, 0u);
}

TEST(SubtaskPartition, SMembershipDeterminedByResult) {
  // Partition property: a result plex's S is exactly its intersection
  // with N2 of its seed graph — hence no two sub-tasks can produce the
  // same plex. Verified indirectly: no duplicates over a graph where
  // many sub-tasks fire.
  Graph g = GenerateErdosRenyi(40, 0.4, 34);
  auto results = RunEngine(g, EnumOptions::Ours(3, 6));
  std::set<std::vector<VertexId>> unique(results.begin(), results.end());
  EXPECT_EQ(unique.size(), results.size());
}

}  // namespace
}  // namespace kplex
