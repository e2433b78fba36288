// The parallel engine must produce exactly the sequential result set for
// every thread count and every timeout, including timeouts small enough
// to force heavy task decomposition.

#include "parallel/parallel_enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/enumerator.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::ResultSet;
using testing_util::RunEngine;
using testing_util::VerifyResultSet;

ResultSet RunParallel(const Graph& g, const EnumOptions& options,
                      uint32_t threads, double timeout_ms) {
  CollectingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = threads;
  parallel.timeout_ms = timeout_ms;
  auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return sink.SortedResults();
}

struct ParallelParam {
  uint32_t threads;
  double timeout_ms;
};

class ParallelSweep : public ::testing::TestWithParam<ParallelParam> {};

TEST_P(ParallelSweep, MatchesSequentialOnSocialGraph) {
  const auto& p = GetParam();
  Graph g = GenerateBarabasiAlbert(300, 8, 555);
  EnumOptions options = EnumOptions::Ours(2, 6);
  ResultSet sequential = RunEngine(g, options);
  ResultSet parallel = RunParallel(g, options, p.threads, p.timeout_ms);
  EXPECT_EQ(parallel, sequential);
}

TEST_P(ParallelSweep, MatchesSequentialOnDenseGraph) {
  const auto& p = GetParam();
  Graph g = GenerateErdosRenyi(90, 0.3, 556);
  EnumOptions options = EnumOptions::Ours(3, 7);
  ResultSet sequential = RunEngine(g, options);
  ResultSet parallel = RunParallel(g, options, p.threads, p.timeout_ms);
  EXPECT_EQ(parallel, sequential);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndTimeouts, ParallelSweep,
    ::testing::Values(ParallelParam{1, 0.0},    // single thread, no timeout
                      ParallelParam{2, 0.0},
                      ParallelParam{4, 0.0},
                      ParallelParam{2, 0.1},    // the paper's default tau
                      ParallelParam{4, 0.1},
                      ParallelParam{4, 0.001},  // shred into micro-tasks
                      ParallelParam{3, 10.0},
                      // Far more threads than cores: termination must
                      // not wait on preempted workers.
                      ParallelParam{32, 0.001}),
    [](const ::testing::TestParamInfo<ParallelParam>& info) {
      return "t" + std::to_string(info.param.threads) + "tau" +
             std::to_string(static_cast<int>(info.param.timeout_ms * 1000));
    });

TEST(Parallel, TinyTimeoutActuallyDecomposes) {
  // 38 one-word and 78 two-word seed graphs: a worker re-targets between
  // widths, and a spawned task runs at its own seed graph's width on
  // whichever worker takes it.
  Graph g = GenerateErdosRenyi(120, 0.2, 777);
  EnumOptions options = EnumOptions::Ours(2, 5);
  testing_util::ExpectWidthsUpTo(g, options, 2);
  CollectingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = 2;
  parallel.timeout_ms = 0.001;  // 1 microsecond: everything times out
  auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->counters.timeout_spawns, 0u)
      << "expected straggler decomposition to fire";
  EXPECT_EQ(sink.SortedResults(), RunEngine(g, options));
}

TEST(Parallel, NoTimeoutNeverSpawns) {
  Graph g = GenerateErdosRenyi(60, 0.3, 778);
  EnumOptions options = EnumOptions::Ours(2, 5);
  CollectingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = 4;
  parallel.timeout_ms = 0.0;
  auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->counters.timeout_spawns, 0u);
}

TEST(Parallel, TimeLimitStopsTheRunAndReportsTimedOut) {
  // The wiki-vote-syn recipe at k=3 q=11: 229,572 plexes and about half
  // a CPU-second of search, so a 50 ms limit stops it well short.
  Graph g = GenerateBarabasiAlbert(1200, 18, 0xA004);
  EnumOptions options = EnumOptions::Ours(3, 11);
  options.time_limit_seconds = 0.05;
  CountingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = 2;
  auto limited = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  ASSERT_TRUE(limited.ok());
  EXPECT_TRUE(limited->timed_out);
  EXPECT_FALSE(limited->cancelled);
  EXPECT_LT(limited->num_plexes, 229572u);

  // A limit the run never reaches leaves the answer whole and unflagged.
  Graph small = GenerateBarabasiAlbert(150, 6, 888);
  EnumOptions roomy = EnumOptions::Ours(2, 5);
  roomy.time_limit_seconds = 600;
  CollectingSink collected;
  auto whole = ParallelEnumerateMaximalKPlexes(small, roomy, parallel,
                                               collected);
  ASSERT_TRUE(whole.ok());
  EXPECT_FALSE(whole->timed_out);
  EXPECT_EQ(collected.SortedResults(), RunEngine(small, roomy));
}

// The workers claim emits from one run-wide count, so a capped run
// returns exactly max_results plexes at every worker count. Which ones
// a parallel run returns is not fixed, but each is one of the full
// answer's.
TEST(Parallel, MaxResultsCapsTheRunAtEveryWorkerCount) {
  Graph g = GenerateErdosRenyi(90, 0.3, 556);
  EnumOptions options = EnumOptions::Ours(3, 7);
  const ResultSet whole = RunEngine(g, options);
  options.max_results = whole.size() / 4;
  ASSERT_GT(options.max_results, 0u);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    CollectingSink sink;
    ParallelOptions parallel;
    parallel.num_threads = threads;
    auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->stopped_early);
    EXPECT_EQ(result->num_plexes, options.max_results);
    const ResultSet page = sink.SortedResults();
    EXPECT_EQ(page.size(), options.max_results);
    for (const auto& plex : page) {
      EXPECT_TRUE(std::binary_search(whole.begin(), whole.end(), plex));
    }
  }
}

TEST(Parallel, MoreThreadsThanSeeds) {
  Graph g = GenerateErdosRenyi(12, 0.6, 779);
  EnumOptions options = EnumOptions::Ours(2, 4);
  ResultSet sequential = RunEngine(g, options);
  EXPECT_EQ(RunParallel(g, options, 16, 0.1), sequential);
}

TEST(Parallel, EmptyGraph) {
  Graph g;
  EnumOptions options = EnumOptions::Ours(2, 4);
  CollectingSink sink;
  ParallelOptions parallel;
  parallel.num_threads = 4;
  auto result = ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_plexes, 0u);
}

TEST(Parallel, RejectsInvalidOptions) {
  Graph g = GenerateErdosRenyi(10, 0.3, 1);
  CollectingSink sink;
  ParallelOptions parallel;
  auto result = ParallelEnumerateMaximalKPlexes(
      g, EnumOptions::Ours(3, 2), parallel, sink);
  EXPECT_FALSE(result.ok());
}

TEST(Parallel, WorksForAllVariants) {
  Graph g = GenerateBarabasiAlbert(150, 6, 888);
  for (auto options :
       {EnumOptions::Ours(2, 5), EnumOptions::OursP(2, 5),
        EnumOptions::Basic(2, 5), EnumOptions::OursNoUb(2, 5)}) {
    ResultSet sequential = RunEngine(g, options);
    ResultSet parallel = RunParallel(g, options, 3, 0.05);
    EXPECT_EQ(parallel, sequential);
    VerifyResultSet(g, parallel, options.k, options.q);
  }
}

}  // namespace
}  // namespace kplex
