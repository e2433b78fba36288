// Tests for the seed-plan probe (core/seed_plan.h) and the cooperative
// yield hook (EnumOptions::yield): the two core primitives of sharded
// mining v2. The probe's seed space must match the enumerator's
// exactly, and a yielded run, sequential or parallel, must be a complete
// answer for its covered prefix — the remainder merged on top
// reproduces the full fingerprint.

#include "core/seed_plan.h"

#include <atomic>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "parallel/parallel_enumerator.h"

namespace kplex {
namespace {

TEST(SeedPlan, TotalSeedsMatchesTheEnumerator) {
  const Graph g = GenerateErdosRenyi(80, 0.15, 11);
  const EnumOptions options = EnumOptions::Ours(2, 4);
  auto plan = ComputeSeedPlan(g, options);
  ASSERT_TRUE(plan.ok());
  CountingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(plan->total_seeds, result->total_seeds);
  EXPECT_EQ(plan->degrees.size(), plan->total_seeds);
  EXPECT_EQ(plan->coreness.size(), plan->total_seeds);
}

TEST(SeedPlan, SignalsAreBoundedByTheGraph) {
  const Graph g = GenerateBarabasiAlbert(120, 4, 3);
  const EnumOptions options = EnumOptions::Ours(2, 5);
  auto plan = ComputeSeedPlan(g, options);
  ASSERT_TRUE(plan.ok());
  for (uint64_t i = 0; i < plan->total_seeds; ++i) {
    // In degeneracy order every forward degree is at most the
    // degeneracy — that bound is what makes it the canonical order.
    EXPECT_LE(plan->degrees[i], plan->degeneracy);
    EXPECT_LE(plan->coreness[i], plan->degeneracy);
  }
}

TEST(SeedPlan, CostIsTheDocumentedProduct) {
  EXPECT_EQ(SeedPlanCost(0, 0), 1u);
  EXPECT_EQ(SeedPlanCost(3, 2), 12u);
  EXPECT_EQ(SeedPlanCost(9, 9), 100u);
}

TEST(SeedPlan, RejectsInvalidOptions) {
  const Graph g = GenerateErdosRenyi(20, 0.2, 3);
  EnumOptions options = EnumOptions::Ours(2, 2);  // q < 2k - 1
  EXPECT_FALSE(ComputeSeedPlan(g, options).ok());
}

TEST(Yield, PresetFlagStopsBeforeTheFirstSeed) {
  const Graph g = GenerateErdosRenyi(60, 0.2, 5);
  std::atomic<bool> yield{true};
  EnumOptions options = EnumOptions::Ours(2, 4);
  options.yield = &yield;
  CountingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->yielded);
  EXPECT_EQ(result->num_plexes, 0u);
  EXPECT_EQ(result->covered_begin, result->covered_end);
}

// `threads` 0 mines sequentially, otherwise with that many workers.
StatusOr<EnumResult> Mine(const Graph& g, const EnumOptions& options,
                          uint32_t threads, ResultSink& sink) {
  if (threads == 0) return EnumerateMaximalKPlexes(g, options, sink);
  ParallelOptions parallel;
  parallel.num_threads = threads;
  return ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
}

TEST(Yield, CoveredPrefixPlusRemainderEqualsTheFullRun) {
  const Graph g = GenerateErdosRenyi(80, 0.18, 9);
  const EnumOptions base = EnumOptions::Ours(2, 4);

  HashingSink full_sink;
  auto full = EnumerateMaximalKPlexes(g, base, full_sink);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->total_seeds, 12u);

  // Sequentially (threads 0) a stage is one seed; with three threads
  // every worker stops at the same stage boundary.
  for (uint32_t threads : {0u, 3u}) {
    SCOPED_TRACE(threads);
    // Yield partway: raise the flag from the progress hook after a few
    // seeds, so the run stops at a boundary neither 0 nor the end.
    std::atomic<bool> yield{false};
    EnumOptions yielding = base;
    yielding.yield = &yield;
    yielding.progress_min_interval_ms = 0;
    yielding.progress = [&yield](uint64_t done, uint64_t, uint64_t) {
      if (done >= 3) yield.store(true);
    };
    HashingSink prefix_sink;
    auto prefix = Mine(g, yielding, threads, prefix_sink);
    ASSERT_TRUE(prefix.ok());
    ASSERT_TRUE(prefix->yielded);
    ASSERT_EQ(prefix->covered_begin, 0u);
    ASSERT_LT(prefix->covered_end, full->total_seeds);
    ASSERT_GT(prefix->covered_end, 0u);
    // Every worker stops at the same stage boundary, and a stage holds a
    // whole number of seeds per worker.
    if (threads > 0) EXPECT_EQ(prefix->covered_end % threads, 0u);

    // The tail run: exactly the seeds the yielded run did not cover.
    EnumOptions tail_options = base;
    tail_options.seed_range.begin = prefix->covered_end;
    tail_options.seed_range.end = UINT32_MAX;
    HashingSink tail_sink;
    auto tail = Mine(g, tail_options, threads, tail_sink);
    ASSERT_TRUE(tail.ok());
    EXPECT_FALSE(tail->yielded);

    MergeableResult merged;
    merged.count = prefix_sink.count();
    merged.xor_hash = prefix_sink.xor_hash();
    MergeableResult tail_piece;
    tail_piece.count = tail_sink.count();
    tail_piece.xor_hash = tail_sink.xor_hash();
    merged.Merge(tail_piece);
    EXPECT_EQ(merged.count, full->num_plexes);
    EXPECT_EQ(merged.fingerprint(), full_sink.fingerprint());
  }
}

TEST(Yield, UnsetFlagChangesNothing) {
  const Graph g = GenerateErdosRenyi(50, 0.2, 7);
  std::atomic<bool> yield{false};
  EnumOptions options = EnumOptions::Ours(2, 4);
  HashingSink plain_sink;
  auto plain = EnumerateMaximalKPlexes(g, options, plain_sink);
  ASSERT_TRUE(plain.ok());
  options.yield = &yield;
  HashingSink hooked_sink;
  auto hooked = EnumerateMaximalKPlexes(g, options, hooked_sink);
  ASSERT_TRUE(hooked.ok());
  EXPECT_FALSE(hooked->yielded);
  EXPECT_EQ(hooked->num_plexes, plain->num_plexes);
  EXPECT_EQ(hooked_sink.fingerprint(), plain_sink.fingerprint());
  EXPECT_EQ(hooked->covered_end, plain->covered_end);
}

}  // namespace
}  // namespace kplex
