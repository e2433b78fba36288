// Unit tests for the coordinator's chunk planner and worker pool
// (src/coord/planner.h, src/coord/worker_pool.h).

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "coord/planner.h"
#include "coord/worker_pool.h"
#include "core/seed_plan.h"

namespace kplex {
namespace {

// Every plan must exactly partition [0, n): contiguous, non-empty,
// gap-free, ending at n.
void ExpectExactPartition(const std::vector<CoordChunk>& chunks, uint64_t n) {
  if (n == 0) {
    EXPECT_TRUE(chunks.empty());
    return;
  }
  ASSERT_FALSE(chunks.empty());
  uint32_t cursor = 0;
  for (const CoordChunk& chunk : chunks) {
    EXPECT_EQ(chunk.begin, cursor);
    EXPECT_LT(chunk.begin, chunk.end);
    cursor = chunk.end;
  }
  EXPECT_EQ(cursor, n);
}

TEST(EstimateSeedCosts, AppliesSeedPlanCostElementwise) {
  const std::vector<uint32_t> degrees = {0, 3, 10};
  const std::vector<uint32_t> coreness = {0, 2, 5};
  const std::vector<uint64_t> costs = EstimateSeedCosts(degrees, coreness);
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_EQ(costs[0], SeedPlanCost(0, 0));
  EXPECT_EQ(costs[1], SeedPlanCost(3, 2));
  EXPECT_EQ(costs[2], SeedPlanCost(10, 5));
  EXPECT_EQ(costs[1], 12u);  // (3+1) * (2+1)
}

TEST(PlanCostChunks, UniformCostsSplitEvenly) {
  const std::vector<uint64_t> costs(100, 7);
  const auto chunks = PlanCostChunks(costs, 10);
  ExpectExactPartition(chunks, 100);
  EXPECT_EQ(chunks.size(), 10u);
  for (const CoordChunk& chunk : chunks) {
    EXPECT_EQ(chunk.end - chunk.begin, 10u);
    EXPECT_EQ(chunk.est_cost, 70u);
  }
}

TEST(PlanCostChunks, SkewedCostsGetSmallChunksAroundTheHub) {
  // One hub seed worth as much as everything else combined.
  std::vector<uint64_t> costs(64, 1);
  costs[5] = 64;
  const auto chunks = PlanCostChunks(costs, 8);
  ExpectExactPartition(chunks, 64);
  EXPECT_GT(chunks.size(), 1u);
  EXPECT_LE(chunks.size(), 8u);
  // The chunk holding the hub should close quickly: the hub alone
  // exceeds the per-chunk share, so its chunk stays narrow.
  for (const CoordChunk& chunk : chunks) {
    if (chunk.begin <= 5 && 5 < chunk.end) {
      EXPECT_LE(chunk.end - chunk.begin, 8u);
    }
  }
}

TEST(PlanCostChunks, ChunkCostsSumToTotal) {
  std::vector<uint64_t> costs;
  for (uint32_t i = 0; i < 37; ++i) costs.push_back((i * 13) % 11 + 1);
  const uint64_t total = std::accumulate(costs.begin(), costs.end(),
                                         uint64_t{0});
  const auto chunks = PlanCostChunks(costs, 5);
  ExpectExactPartition(chunks, 37);
  uint64_t planned = 0;
  for (const CoordChunk& chunk : chunks) planned += chunk.est_cost;
  EXPECT_EQ(planned, total);
}

TEST(PlanCostChunks, DegenerateInputs) {
  EXPECT_TRUE(PlanCostChunks({}, 4).empty());
  const auto one = PlanCostChunks({5}, 4);
  ExpectExactPartition(one, 1);
  EXPECT_EQ(one.size(), 1u);
  // target_chunks = 1: everything in one chunk.
  const auto single = PlanCostChunks({1, 2, 3}, 1);
  ExpectExactPartition(single, 3);
  EXPECT_EQ(single.size(), 1u);
}

TEST(WorkerPool, RegisterAssignsStableIdsAndRevives) {
  WorkerPool pool;
  const uint64_t a = pool.Register("127.0.0.1:7001");
  const uint64_t b = pool.Register("127.0.0.1:7002");
  EXPECT_NE(a, b);
  // Re-registering a known endpoint keeps its id (tallies survive).
  pool.MarkDead(a);
  EXPECT_EQ(pool.Register("127.0.0.1:7001"), a);
  auto record = pool.Get(a);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, WorkerState::kIdle);
}

TEST(WorkerPool, HeartbeatRevivesDeadWorkers) {
  WorkerPool pool;
  const uint64_t id = pool.Register("127.0.0.1:7001");
  pool.MarkDead(id);
  ASSERT_TRUE(pool.Heartbeat(id).ok());
  auto record = pool.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, WorkerState::kIdle);
  EXPECT_EQ(pool.Heartbeat(999).code(), StatusCode::kNotFound);
}

TEST(WorkerPool, DrainRemovesFromSchedulableSet) {
  WorkerPool pool;
  const uint64_t a = pool.Register("127.0.0.1:7001");
  const uint64_t b = pool.Register("127.0.0.1:7002");
  ASSERT_TRUE(pool.Drain(a).ok());
  const auto schedulable = pool.Schedulable();
  ASSERT_EQ(schedulable.size(), 1u);
  EXPECT_EQ(schedulable[0].id, b);
  // A draining worker finishing its chunk must NOT return to idle.
  pool.MarkIdle(a);
  auto record = pool.Get(a);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, WorkerState::kDraining);
  // Draining a dead worker is refused; draining an unknown one is 404.
  pool.MarkDead(b);
  EXPECT_EQ(pool.Drain(b).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.Drain(999).code(), StatusCode::kNotFound);
}

TEST(WorkerPool, BusyWorkersStaySchedulable) {
  WorkerPool pool;
  const uint64_t id = pool.Register("127.0.0.1:7001");
  pool.MarkBusy(id);
  ASSERT_EQ(pool.Schedulable().size(), 1u);
  pool.NoteChunkDone(id);
  pool.MarkIdle(id);
  auto record = pool.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, WorkerState::kIdle);
  EXPECT_EQ(record->chunks_done, 1u);
}

}  // namespace
}  // namespace kplex
