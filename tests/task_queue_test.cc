// Unit tests for the work-stealing task queue: LIFO owner side, FIFO
// thief side, and thread-safety under concurrent push/pop/steal.

#include "core/task_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/degeneracy.h"

namespace kplex {
namespace {

// A SeedGraph is required to size TaskStates; build a tiny shared one.
std::shared_ptr<const SeedGraph> TinySeedGraph() {
  static std::shared_ptr<const SeedGraph> cached = [] {
    Graph g = GenerateErdosRenyi(20, 0.5, 1);
    DegeneracyResult degeneracy = ComputeDegeneracy(g);
    EnumOptions options = EnumOptions::Ours(2, 3);
    for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
      auto sg = BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
      if (sg.has_value()) {
        return std::make_shared<const SeedGraph>(std::move(*sg));
      }
    }
    return std::shared_ptr<const SeedGraph>();
  }();
  return cached;
}

ParallelTask MakeTask(uint32_t tag) {
  auto sg = TinySeedGraph();
  ParallelTask task;
  task.seed_graph = sg;
  task.state = TaskState::MakeEmpty(*sg);
  task.state.p_size = tag;  // use p_size as an identity tag
  return task;
}

TEST(TaskQueue, EmptyByDefault) {
  TaskQueue queue;
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Size(), 0u);
  ParallelTask out;
  EXPECT_FALSE(queue.TryPop(out));
  EXPECT_FALSE(queue.TrySteal(out));
}

TEST(TaskQueue, OwnerPopsLifoThiefStealsFifo) {
  TaskQueue queue;
  queue.Push(MakeTask(1));
  queue.Push(MakeTask(2));
  queue.Push(MakeTask(3));
  EXPECT_EQ(queue.Size(), 3u);

  ParallelTask out;
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out.state.p_size, 3u);  // most recent first (locality)
  ASSERT_TRUE(queue.TrySteal(out));
  EXPECT_EQ(out.state.p_size, 1u);  // oldest stolen first
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out.state.p_size, 2u);
  EXPECT_TRUE(queue.Empty());
}

TEST(TaskQueue, StressConcurrentPushStealWithCancellationMidDrain) {
  // The dispatcher-era failure mode: a parallel mine is cancelled while
  // its workers are mid-drain, so consumers stop abruptly with tasks
  // still queued. The queue must neither lose nor duplicate tasks:
  // tag-sums over (consumed + left behind) must equal what was pushed.
  TaskQueue queue;
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kTasksPerProducer = 1500;
  constexpr uint64_t kTotalTasks = kProducers * kTasksPerProducer;

  std::atomic<bool> cancel{false};
  std::atomic<uint32_t> producers_done{0};
  std::atomic<uint64_t> consumed_count{0};
  std::atomic<uint64_t> consumed_tag_sum{0};

  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint32_t i = 0; i < kTasksPerProducer; ++i) {
        // Unique tag per task across all producers.
        queue.Push(MakeTask(p * kTasksPerProducer + i + 1));
      }
      producers_done.fetch_add(1);
    });
  }
  // Mixed-discipline consumers (2 owner-side poppers, 2 thieves), all
  // honoring the cancel flag between pops — exactly how the parallel
  // engine's workers drain under EnumOptions::cancel.
  auto consumer = [&](bool steal) {
    ParallelTask out;
    while (!cancel.load(std::memory_order_relaxed)) {
      bool got = steal ? queue.TrySteal(out) : queue.TryPop(out);
      if (got) {
        consumed_count.fetch_add(1, std::memory_order_relaxed);
        consumed_tag_sum.fetch_add(out.state.p_size,
                                   std::memory_order_relaxed);
      } else if (producers_done.load() == kProducers && queue.Empty()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::vector<std::thread> consumers;
  consumers.emplace_back(consumer, false);
  consumers.emplace_back(consumer, false);
  consumers.emplace_back(consumer, true);
  consumers.emplace_back(consumer, true);

  // Flip the cancel mid-drain: after roughly a third of the work has
  // been consumed (never wait for completion — that defeats the test).
  while (consumed_count.load() < kTotalTasks / 3) {
    std::this_thread::yield();
  }
  cancel.store(true);
  for (auto& thread : producers) thread.join();
  for (auto& thread : consumers) thread.join();

  // Drain the leftovers serially and account for every task exactly
  // once: total tag sum is sum(1..kTotalTasks).
  uint64_t leftover_count = 0;
  uint64_t leftover_tag_sum = 0;
  ParallelTask out;
  while (queue.TryPop(out)) {
    ++leftover_count;
    leftover_tag_sum += out.state.p_size;
  }
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(consumed_count.load() + leftover_count, kTotalTasks);
  const uint64_t expected_tag_sum = kTotalTasks * (kTotalTasks + 1) / 2;
  EXPECT_EQ(consumed_tag_sum.load() + leftover_tag_sum, expected_tag_sum);
}

TEST(TaskQueue, ConcurrentPushPopStealLosesNothing) {
  TaskQueue queue;
  constexpr uint32_t kTasks = 2000;
  std::atomic<uint32_t> consumed{0};
  std::atomic<bool> done_producing{false};

  std::thread producer([&] {
    for (uint32_t i = 0; i < kTasks; ++i) queue.Push(MakeTask(i));
    done_producing.store(true);
  });
  auto consumer = [&](bool steal) {
    ParallelTask out;
    while (true) {
      bool got = steal ? queue.TrySteal(out) : queue.TryPop(out);
      if (got) {
        consumed.fetch_add(1);
      } else if (done_producing.load() && queue.Empty()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::thread popper(consumer, false);
  std::thread thief(consumer, true);
  producer.join();
  popper.join();
  thief.join();
  EXPECT_EQ(consumed.load(), kTasks);
  EXPECT_TRUE(queue.Empty());
}

}  // namespace
}  // namespace kplex
