// Per-thread task queues of the staged parallel engine (Section 6,
// Figure 6). Each worker pushes and pops its own queue from the front
// (depth-first locality: freshly decomposed straggler pieces reuse the
// seed subgraph that is hot in cache) while idle workers steal from the
// back (coarse, older tasks — classic work-stealing discipline).

#ifndef KPLEX_CORE_TASK_QUEUE_H_
#define KPLEX_CORE_TASK_QUEUE_H_

#include <deque>
#include <memory>
#include <mutex>

#include "core/seed_graph.h"
#include "core/task_state.h"

namespace kplex {

/// A unit of parallel work: a branch-and-bound state pinned to its
/// (immutable, shared) seed subgraph.
struct ParallelTask {
  std::shared_ptr<const SeedGraph> seed_graph;
  TaskState state;
};

class TaskQueue {
 public:
  void Push(ParallelTask&& task);

  /// Owner-side pop (front). Returns false when empty.
  bool TryPop(ParallelTask& out);

  /// Thief-side pop (back). Returns false when empty.
  bool TrySteal(ParallelTask& out);

  bool Empty() const;
  std::size_t Size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<ParallelTask> tasks_;
};

}  // namespace kplex

#endif  // KPLEX_CORE_TASK_QUEUE_H_
