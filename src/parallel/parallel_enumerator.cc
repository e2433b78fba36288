#include "parallel/parallel_enumerator.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "core/branch.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/subtask.h"
#include "obs/progress_throttle.h"
#include "parallel/task_queue.h"
#include "util/timer.h"

namespace kplex {
namespace {

// Per-thread state is cache-line padded: the engine bumps counters on
// every Branch() call, and unpadded adjacent counters of two workers
// ping-pong a shared line hard enough to erase the parallel speedup.
struct alignas(128) PaddedCounters {
  AlgoCounters value;
};

struct alignas(128) PaddedQueue {
  TaskQueue queue;
};

class ParallelRunner {
 public:
  ParallelRunner(const Graph& reduced, std::vector<VertexId> to_original,
                 DegeneracyResult degeneracy, const EnumOptions& options,
                 const ParallelOptions& parallel_options, ResultSink& sink)
      : graph_(reduced), to_original_(std::move(to_original)),
        degeneracy_(std::move(degeneracy)), options_(options), sink_(sink),
        num_threads_(parallel_options.num_threads > 0
                         ? parallel_options.num_threads
                         : std::max(1u, std::thread::hardware_concurrency())),
        timeout_nanos_(parallel_options.timeout_ms > 0
                           ? static_cast<int64_t>(
                                 parallel_options.timeout_ms * 1e6)
                           : 0),
        // One deadline for the whole run, set on every engine and
        // checked before each seed and task (0: no time limit).
        global_deadline_(options.time_limit_seconds > 0
                             ? WallTimer::NowNanos() +
                                   static_cast<int64_t>(
                                       options.time_limit_seconds * 1e9)
                             : 0),
        // Sharded mining: the stage loop walks only this shard's slice
        // [range_begin_, range_end_) of the canonical seed order, so
        // disjoint ranges partition the result set exactly as in the
        // sequential engine (docs/SHARDING.md).
        range_begin_(static_cast<uint32_t>(std::min<uint64_t>(
            options.seed_range.begin, reduced.NumVertices()))),
        range_end_(static_cast<uint32_t>(std::min<uint64_t>(
            options.seed_range.end, reduced.NumVertices()))),
        seeds_per_stage_(ResolveBatch(parallel_options.seeds_per_stage,
                                      range_end_ - range_begin_,
                                      num_threads_)),
        queues_(num_threads_), counters_(num_threads_),
        barrier_(static_cast<std::ptrdiff_t>(num_threads_),
                 StageReset{this}) {}

  AlgoCounters Run() {
    std::vector<std::thread> workers;
    workers.reserve(num_threads_);
    for (uint32_t t = 0; t < num_threads_; ++t) {
      workers.emplace_back([this, t] { WorkerMain(t); });
    }
    for (auto& w : workers) w.join();
    AlgoCounters merged;
    for (const auto& c : counters_) merged.MergeFrom(c.value);
    return merged;
  }

  /// True when any worker skipped or aborted work due to options.cancel.
  bool observed_cancel() const {
    return observed_cancel_.load(std::memory_order_relaxed);
  }

  /// True when any engine hit options.max_results. Workers then stop
  /// picking up work, but tasks already executing still finish, so the
  /// global output count may overshoot max_results (callers see
  /// stopped_early and can truncate).
  bool stopped_early() const {
    return stopped_early_.load(std::memory_order_relaxed);
  }

  /// True when the run skipped or aborted work because
  /// options.time_limit_seconds passed.
  bool timed_out() const { return timed_out_.load(std::memory_order_relaxed); }

 private:
  struct StageReset {
    ParallelRunner* runner;
    void operator()() noexcept {
      runner->OnStageComplete();
      runner->populate_done_.store(0, std::memory_order_release);
    }
  };

  // Runs on the barrier-completion thread while every worker is blocked
  // at the barrier, so reading the per-thread counters is race-free.
  void OnStageComplete() noexcept {
    ++stages_done_;
    if (!options_.progress) return;
    // After a cancel the remaining stages skip their seeds; reporting
    // them as done would show a cancelled run reaching 100%.
    if (observed_cancel_.load(std::memory_order_relaxed)) return;
    const uint64_t n = range_end_ - range_begin_;
    const uint64_t done = std::min<uint64_t>(
        static_cast<uint64_t>(stages_done_) * num_threads_ *
            seeds_per_stage_, n);
    if (!progress_throttle_.ShouldEmit(done, n)) return;
    uint64_t outputs = 0;
    for (const auto& c : counters_) outputs += c.value.outputs;
    options_.progress(done, n, outputs);
  }

  // Checks the shared flag and records an observation: only a run that
  // actually skipped or aborted work reports cancelled (a flag flipped
  // after the last task finished must not taint a complete result).
  bool Cancelled() {
    if (options_.cancel == nullptr ||
        !options_.cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    observed_cancel_.store(true, std::memory_order_relaxed);
    return true;
  }

  // The time-limit twin of Cancelled(): true (and recorded) once the
  // global deadline has passed.
  bool TimedOut() {
    if (global_deadline_ == 0 || WallTimer::NowNanos() <= global_deadline_) {
      return false;
    }
    timed_out_.store(true, std::memory_order_relaxed);
    return true;
  }

  static uint32_t ResolveBatch(uint32_t requested, std::size_t n,
                               uint32_t threads) {
    if (requested > 0) return requested;
    // Amortize the stage barrier over enough seeds that per-stage work
    // dwarfs synchronization, while bounding live seed subgraphs.
    const uint64_t target_stages = 64;
    uint64_t batch = n / (static_cast<uint64_t>(threads) * target_stages);
    if (batch < 1) batch = 1;
    if (batch > 32) batch = 32;
    return static_cast<uint32_t>(batch);
  }

  void WorkerMain(uint32_t tid) {
    const uint32_t n = range_end_ - range_begin_;
    const uint32_t per_stage = num_threads_ * seeds_per_stage_;
    const uint32_t stages = (n + per_stage - 1) / per_stage;
    for (uint32_t stage = 0; stage < stages; ++stage) {
      for (uint32_t b = 0; b < seeds_per_stage_; ++b) {
        const uint32_t offset = stage * per_stage + b * num_threads_ + tid;
        if (offset >= n) break;
        const uint32_t seed_index = range_begin_ + offset;
        // Only consult the cancel flag and the deadline when there is
        // a seed to skip — an observation with no work left would
        // taint a complete run.
        if (Cancelled() || stopped_early() || TimedOut()) break;
        PopulateSeed(tid, seed_index);
      }
      // Draining starts as soon as this worker finishes its own builds —
      // other workers' fresh tasks become stealable while stragglers are
      // still constructing their seed subgraphs (no populate barrier).
      populate_done_.fetch_add(1, std::memory_order_acq_rel);
      DrainStage(tid);
      barrier_.arrive_and_wait();  // stage complete; resets populate_done_
    }
  }

  void PopulateSeed(uint32_t tid, uint32_t seed_index) {
    const VertexId seed = degeneracy_.order[seed_index];
    auto built = BuildSeedGraph(graph_, to_original_, degeneracy_, seed,
                                options_, &counters_[tid].value);
    if (!built.has_value()) return;
    auto sg = std::make_shared<const SeedGraph>(std::move(*built));
    EnumerateSubtasks(*sg, options_, counters_[tid].value,
                      [&](TaskState&& state) {
                        Push(tid, ParallelTask{sg, std::move(state)});
                      });
  }

  // Every push is counted in `unfinished_` before the task becomes
  // visible, and a task is uncounted only after it has run (and pushed
  // all its spawns) or been dropped. So the count reads 0 only when no
  // task is queued or running.
  void Push(uint32_t tid, ParallelTask&& task) {
    unfinished_.fetch_add(1, std::memory_order_acq_rel);
    queues_[tid].queue.Push(std::move(task));
  }

  void DrainStage(uint32_t tid) {
    ParallelTask task;
    while (true) {
      // An idle worker sweeps the queues only while some task is counted,
      // so hundreds of waiting threads do not contend for their locks.
      if (unfinished_.load(std::memory_order_acquire) > 0 &&
          PopOrSteal(tid, task)) {
        // On cancellation, a hit result cap or a passed time limit,
        // pending tasks are popped and dropped so the queues empty out
        // and the termination condition fires quickly.
        if (!Cancelled() && !stopped_early() && !TimedOut()) {
          Execute(tid, std::move(task));
        }
        unfinished_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      // Once every worker has populated, no task appears except as the
      // spawn of a task that is still counted.
      if (populate_done_.load(std::memory_order_acquire) == num_threads_ &&
          unfinished_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::this_thread::yield();
    }
  }

  bool PopOrSteal(uint32_t tid, ParallelTask& out) {
    if (queues_[tid].queue.TryPop(out)) return true;
    for (uint32_t off = 1; off < num_threads_; ++off) {
      const uint32_t victim = (tid + off) % num_threads_;
      if (queues_[victim].queue.TrySteal(out)) return true;
    }
    return false;
  }

  void Execute(uint32_t tid, ParallelTask&& task) {
    BranchEngine engine(*task.seed_graph, options_, sink_,
                        counters_[tid].value);
    if (timeout_nanos_ > 0) {
      // t0 is the moment execution starts: the timeout bounds a task's
      // *processing* time (the straggler criterion), not its queue wait.
      const int64_t deadline = WallTimer::NowNanos() + timeout_nanos_;
      auto seed_graph = task.seed_graph;
      engine.SetTaskTimeout(deadline, [this, tid, seed_graph](
                                          TaskState&& state) {
        Push(tid, ParallelTask{seed_graph, std::move(state)});
      });
    }
    if (global_deadline_ > 0) engine.SetGlobalDeadline(global_deadline_);
    engine.Run(task.state);
    if (engine.cancelled()) {
      observed_cancel_.store(true, std::memory_order_relaxed);
    } else if (engine.aborted()) {
      timed_out_.store(true, std::memory_order_relaxed);
    }
    if (engine.stopped_early()) {
      stopped_early_.store(true, std::memory_order_relaxed);
    }
  }

  const Graph& graph_;
  const std::vector<VertexId> to_original_;
  const DegeneracyResult degeneracy_;
  const EnumOptions& options_;
  ResultSink& sink_;
  const uint32_t num_threads_;
  const int64_t timeout_nanos_;
  const int64_t global_deadline_;
  const uint32_t range_begin_;  // clamped shard slice of the seed order
  const uint32_t range_end_;
  const uint32_t seeds_per_stage_;

  std::vector<PaddedQueue> queues_;
  std::vector<PaddedCounters> counters_;
  std::atomic<uint64_t> unfinished_{0};  // queued or running tasks
  std::atomic<uint32_t> populate_done_{0};
  std::atomic<bool> observed_cancel_{false};
  std::atomic<bool> stopped_early_{false};
  std::atomic<bool> timed_out_{false};
  // Only the barrier-completion thread touches it (one at a time),
  // matching the throttle's single-threaded contract.
  ProgressThrottle progress_throttle_{options_.progress_min_interval_ms};
  uint32_t stages_done_ = 0;  // touched only at barrier completion
  std::barrier<StageReset> barrier_;
};

}  // namespace

StatusOr<EnumResult> ParallelEnumerateMaximalKPlexes(
    const Graph& graph, const EnumOptions& options,
    const ParallelOptions& parallel_options, ResultSink& sink) {
  KPLEX_RETURN_IF_ERROR(ValidateOptions(options));
  WallTimer timer;
  EnumResult result;

  PreparedReduction prepared = PrepareReduction(graph, options,
                                                result.counters);
  CoreReduction& core = prepared.core;
  result.total_seeds = core.graph.NumVertices();
  if (core.graph.NumVertices() == 0) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  ParallelRunner runner(core.graph, std::move(core.to_original),
                        std::move(prepared.ordering), options,
                        parallel_options, sink);
  result.counters.MergeFrom(runner.Run());
  result.cancelled = runner.observed_cancel();
  result.stopped_early = runner.stopped_early();
  result.timed_out = runner.timed_out();
  result.num_plexes = result.counters.outputs;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace kplex
