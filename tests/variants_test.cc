// Cross-variant behaviour: pruning rules must shrink the explored search
// space without changing results; the time limit must abort cleanly; the
// counters must be internally consistent.

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::RunEngine;

EnumResult RunFor(const Graph& g, const EnumOptions& options,
                  uint64_t* fingerprint = nullptr) {
  HashingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  EXPECT_TRUE(result.ok());
  if (fingerprint != nullptr) *fingerprint = sink.fingerprint();
  return *std::move(result);
}

TEST(Variants, PruningNeverChangesResultsAndShrinksSearch) {
  Graph g = GenerateBarabasiAlbert(250, 9, 61);
  const uint32_t k = 3, q = 8;

  uint64_t fp_ours, fp_basic, fp_noub;
  EnumResult ours = RunFor(g, EnumOptions::Ours(k, q), &fp_ours);
  EnumResult basic = RunFor(g, EnumOptions::Basic(k, q), &fp_basic);
  EnumResult noub = RunFor(g, EnumOptions::OursNoUb(k, q), &fp_noub);

  EXPECT_EQ(fp_ours, fp_basic);
  EXPECT_EQ(fp_ours, fp_noub);
  EXPECT_EQ(ours.num_plexes, basic.num_plexes);

  // The full rule set explores no more branches than Basic, and the ub
  // variant no more than the no-ub variant.
  EXPECT_LE(ours.counters.branch_calls, basic.counters.branch_calls);
  EXPECT_LE(ours.counters.branch_calls, noub.counters.branch_calls);
}

TEST(Variants, UbPrunesFireOnDenseWorkloads) {
  Graph g = GenerateErdosRenyi(80, 0.35, 62);
  EnumResult ours = RunFor(g, EnumOptions::Ours(3, 8));
  EXPECT_GT(ours.counters.ub_prunes, 0u);
  EnumResult noub = RunFor(g, EnumOptions::OursNoUb(3, 8));
  EXPECT_EQ(noub.counters.ub_prunes, 0u);
}

TEST(Variants, PairPruningPopulatesMatrixCounters) {
  Graph g = GenerateBarabasiAlbert(200, 10, 63);
  EnumResult ours = RunFor(g, EnumOptions::Ours(2, 10));
  EXPECT_GT(ours.counters.pair_edges_pruned, 0u);
  EnumResult basic = RunFor(g, EnumOptions::Basic(2, 10));
  EXPECT_EQ(basic.counters.pair_edges_pruned, 0u);
}

TEST(Variants, OursPMatchesOursEverywhere) {
  for (uint64_t seed : {64ull, 65ull, 66ull}) {
    Graph g = GenerateErdosRenyi(35, 0.4, seed);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 4}, {3, 5}, {4, 7}}) {
      EXPECT_EQ(RunEngine(g, EnumOptions::OursP(k, q)),
                RunEngine(g, EnumOptions::Ours(k, q)))
          << "k=" << k << " q=" << q << " seed=" << seed;
    }
  }
}

TEST(Variants, CountersAreConsistent) {
  Graph g = GenerateBarabasiAlbert(150, 7, 67);
  EnumResult r = RunFor(g, EnumOptions::Ours(2, 6));
  EXPECT_EQ(r.num_plexes, r.counters.outputs);
  EXPECT_GE(r.counters.subtasks, r.counters.subtasks_pruned_r1);
  EXPECT_GT(r.counters.seed_graphs, 0u);
  EXPECT_GT(r.counters.branch_calls, 0u);
}

TEST(Variants, TimeLimitAbortsCleanly) {
  // A hard workload with a microscopic budget must stop early, flag
  // timed_out, and report only verified plexes found so far.
  Graph g = GenerateErdosRenyi(120, 0.35, 68);
  EnumOptions options = EnumOptions::Ours(4, 8);
  options.time_limit_seconds = 0.02;
  CollectingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  // Partial output is still sound (every emitted plex is maximal).
  for (const auto& plex : sink.SortedResults()) {
    EXPECT_TRUE(IsMaximalKPlex(g, plex, options.k));
  }
}

}  // namespace
}  // namespace kplex
