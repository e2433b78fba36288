// Seed-ordering invariance: the paper (Section 3) notes that the result
// set is independent of the vertex ordering and that even timing barely
// moves under within-shell shuffles. We verify the hard half — identical
// result sets under all supported orderings — plus early-stop behaviour
// (max_results).

#include "core/ordering.h"

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "graph/generators.h"
#include "parallel/parallel_enumerator.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::RunEngine;

TEST(Ordering, MakeSeedOrderingShapes) {
  Graph g = GenerateBarabasiAlbert(50, 4, 3);
  for (auto ordering : {VertexOrdering::kDegeneracy, VertexOrdering::kById,
                        VertexOrdering::kByDegreeAscending}) {
    DegeneracyResult result = MakeSeedOrdering(g, ordering);
    ASSERT_EQ(result.order.size(), g.NumVertices());
    for (uint32_t i = 0; i < g.NumVertices(); ++i) {
      EXPECT_EQ(result.rank[result.order[i]], i);
    }
    // Every ordering carries the orientation its ranks induce.
    testing_util::ExpectOrientedBy(g, result.rank, result);
  }
  // kById is the identity.
  DegeneracyResult by_id = MakeSeedOrdering(g, VertexOrdering::kById);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(by_id.order[v], v);
  }
  // kByDegreeAscending is sorted by degree.
  DegeneracyResult by_degree =
      MakeSeedOrdering(g, VertexOrdering::kByDegreeAscending);
  for (std::size_t i = 1; i < by_degree.order.size(); ++i) {
    EXPECT_LE(g.Degree(by_degree.order[i - 1]),
              g.Degree(by_degree.order[i]));
  }
}

TEST(Ordering, ResultSetInvariantUnderOrdering) {
  for (uint64_t seed : {71ull, 72ull, 73ull}) {
    Graph g = GenerateErdosRenyi(45, 0.3, seed);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 4}, {3, 6}}) {
      EnumOptions base = EnumOptions::Ours(k, q);
      auto reference = RunEngine(g, base);
      for (auto ordering :
           {VertexOrdering::kById, VertexOrdering::kByDegreeAscending}) {
        EnumOptions options = base;
        options.ordering = ordering;
        EXPECT_EQ(RunEngine(g, options), reference)
            << "seed=" << seed << " k=" << k << " q=" << q;
      }
    }
  }
}

TEST(Ordering, ParallelRespectsOrderingOption) {
  Graph g = GenerateBarabasiAlbert(120, 6, 74);
  EnumOptions options = EnumOptions::Ours(2, 6);
  options.ordering = VertexOrdering::kById;
  auto sequential = RunEngine(g, options);
  CollectingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = 2;
  auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sink.SortedResults(), sequential);
}

TEST(EarlyStop, MaxResultsCapsOutputCount) {
  Graph g = GenerateErdosRenyi(60, 0.3, 75);
  EnumOptions unbounded = EnumOptions::Ours(2, 4);
  CollectingSink all_sink;
  auto all = EnumerateMaximalKPlexes(g, unbounded, all_sink);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->num_plexes, 10u);

  EnumOptions capped = unbounded;
  capped.max_results = 5;
  CollectingSink capped_sink;
  auto some = EnumerateMaximalKPlexes(g, capped, capped_sink);
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->num_plexes, 5u);
  EXPECT_TRUE(some->stopped_early);
  EXPECT_FALSE(some->timed_out);
  EXPECT_LT(some->counters.branch_calls, all->counters.branch_calls);
  // Everything emitted under the cap is part of the full result set.
  auto full = all_sink.SortedResults();
  for (const auto& plex : capped_sink.SortedResults()) {
    EXPECT_NE(std::find(full.begin(), full.end(), plex), full.end());
  }
}

TEST(EarlyStop, CapLargerThanResultCountIsNoOp) {
  Graph g = GenerateErdosRenyi(30, 0.3, 76);
  EnumOptions options = EnumOptions::Ours(2, 4);
  auto reference = RunEngine(g, options);
  options.max_results = 1000000;
  CollectingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stopped_early);
  EXPECT_EQ(sink.SortedResults(), reference);
}

}  // namespace
}  // namespace kplex
