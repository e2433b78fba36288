#include "core/stage_runner.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/branch.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/task_queue.h"
#include "obs/progress_throttle.h"
#include "util/timer.h"

namespace kplex {
namespace {

// A worker is cache-line padded: its engine bumps its counters on every
// Branch() call, and unpadded adjacent counters of two workers ping-pong
// a shared line hard enough to erase the parallel speedup.
struct alignas(128) Worker {
  Worker(const EnumOptions& options, ResultSink& sink)
      : engine(options, sink, counters) {}
  // The consumer and the spawn callback hold the worker's address.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  AlgoCounters counters;
  BranchEngine engine;
  TaskQueue queue;
  /// Takes each task of the seed step: runs it (one worker) or queues
  /// it (M workers). Set once per run, like the engine's spawn callback.
  TaskConsumer consume;
  /// With M workers, the seed graph being cut into tasks and the one of
  /// the task being run: the tasks queued from either share it.
  std::shared_ptr<const SeedGraph> cutting;
  std::shared_ptr<const SeedGraph> running;
  uint64_t seeds_done = 0;  ///< seeds built or rejected
};

class StageRunner {
 public:
  StageRunner(const PreparedReduction& prepared, const EnumOptions& options,
              uint32_t num_workers, double timeout_ms, SeedStep seed_step,
              ResultSink& sink, EnumResult& result)
      : graph_(prepared.core.graph),
        to_original_(prepared.core.to_original),
        ordering_(prepared.ordering), options_(options),
        seed_step_(seed_step), result_(result), num_workers_(num_workers),
        timeout_nanos_(num_workers > 1 && timeout_ms > 0
                           ? static_cast<int64_t>(timeout_ms * 1e6)
                           : 0),
        // One deadline for the whole run, checked before each seed and
        // task and by every engine (0: no time limit).
        global_deadline_(options.time_limit_seconds > 0
                             ? WallTimer::NowNanos() +
                                   static_cast<int64_t>(
                                       options.time_limit_seconds * 1e9)
                             : 0),
        // Sharded mining: only this shard's slice of the canonical seed
        // order. Every plex is found from exactly one seed, so disjoint
        // ranges partition the result set (docs/SHARDING.md).
        range_begin_(static_cast<uint32_t>(std::min<uint64_t>(
            options.seed_range.begin, graph_.NumVertices()))),
        range_end_(static_cast<uint32_t>(std::min<uint64_t>(
            options.seed_range.end, graph_.NumVertices()))),
        batch_(ResolveBatch(range_end_ - range_begin_, num_workers)),
        per_stage_(static_cast<uint64_t>(num_workers) * batch_),
        progress_throttle_(options.progress_min_interval_ms),
        barrier_(static_cast<std::ptrdiff_t>(num_workers), StageEnd{this}) {
    for (uint32_t t = 0; t < num_workers_; ++t) {
      Worker& w =
          *workers_.emplace_back(std::make_unique<Worker>(options_, sink));
      if (global_deadline_ > 0) w.engine.SetGlobalDeadline(global_deadline_);
      w.engine.ShareResultCap(&results_claimed_);
      if (num_workers_ == 1) {
        w.consume = [&w](TaskState&& task) { w.engine.Run(task); };
        continue;
      }
      w.consume = [this, &w](TaskState&& task) {
        Push(w, ParallelTask{w.cutting, std::move(task)});
      };
      if (timeout_nanos_ > 0) {
        w.engine.SetSpawn([this, &w](TaskState&& task) {
          Push(w, ParallelTask{w.running, std::move(task)});
        });
      }
    }
  }

  // The workers' threads and callbacks hold the runner's address.
  StageRunner(const StageRunner&) = delete;
  StageRunner& operator=(const StageRunner&) = delete;

  void Run() {
    result_.covered_begin = range_begin_;
    BeginStage();
    if (num_workers_ == 1) {
      WorkerMain(0);
    } else {
      std::vector<std::thread> threads;
      for (uint32_t t = 0; t < num_workers_; ++t) {
        threads.emplace_back([this, t] { WorkerMain(t); });
      }
      for (std::thread& thread : threads) thread.join();
    }
    for (const auto& w : workers_) result_.counters.MergeFrom(w->counters);
    result_.cancelled = observed_cancel_.load(std::memory_order_relaxed);
    result_.stopped_early = stopped_early_.load(std::memory_order_relaxed);
    result_.timed_out = timed_out_.load(std::memory_order_relaxed);
    result_.covered_end = result_.yielded ? StageStart() : range_end_;
  }

 private:
  struct StageEnd {
    StageRunner* runner;
    void operator()() noexcept { runner->EndStage(); }
  };

  // Amortize the stage barrier over enough seeds that per-stage work
  // dwarfs synchronization, while bounding live seed subgraphs. One
  // worker expands one seed per stage, as Algorithm 2 does.
  static uint32_t ResolveBatch(uint64_t n, uint32_t workers) {
    if (workers == 1) return 1;
    const uint64_t target_stages = 64;
    return static_cast<uint32_t>(
        std::clamp<uint64_t>(n / (workers * target_stages), 1, 32));
  }

  // First seed index of the current stage (range_end_ past the last).
  uint32_t StageStart() const {
    return static_cast<uint32_t>(
        std::min<uint64_t>(range_begin_ + stage_ * per_stage_, range_end_));
  }

  // Decides, while no worker runs a seed, whether the current stage
  // runs. Only here does a yield stop the run, so every worker has
  // finished [range_begin_, StageStart()), a complete answer. A set
  // cancel flag wins over a yield: the workers observe it instead.
  void BeginStage() {
    if (StageStart() == range_end_ ||
        observed_cancel_.load(std::memory_order_relaxed) ||
        stopped_early_.load(std::memory_order_relaxed) ||
        timed_out_.load(std::memory_order_relaxed)) {
      stop_ = true;
    } else if (options_.yield != nullptr &&
               options_.yield->load(std::memory_order_relaxed) &&
               !CancelRequested()) {
      result_.yielded = true;
      stop_ = true;
    }
  }

  // The barrier's completion step: runs on one thread while every
  // worker waits, so reading the workers' counters is race-free.
  void EndStage() noexcept {
    ReportProgress();
    cut_done_.store(0, std::memory_order_release);
    ++stage_;
    BeginStage();
  }

  void ReportProgress() {
    if (!options_.progress) return;
    uint64_t done = 0;
    uint64_t outputs = 0;
    for (const auto& w : workers_) {
      done += w->seeds_done;
      outputs += w->counters.outputs;
    }
    // A stage whose seeds were all skipped has nothing new to report.
    if (done == progress_done_) return;
    progress_done_ = done;
    const uint64_t total = range_end_ - range_begin_;
    if (progress_throttle_.ShouldEmit(done, total)) {
      options_.progress(done, total, outputs);
    }
  }

  void WorkerMain(uint32_t tid) {
    Worker& w = *workers_[tid];
    while (!stop_) {
      for (uint64_t index = range_begin_ + stage_ * per_stage_ + tid, b = 0;
           b < batch_ && index < range_end_; ++b, index += num_workers_) {
        // Only consult the flags when there is a seed to skip: an
        // observation with no work left would taint a complete run.
        if (Stopping()) break;
        RunSeed(w, static_cast<uint32_t>(index));
      }
      // Draining starts as soon as this worker has cut its seeds: the
      // others' tasks are stealable while stragglers still build.
      cut_done_.fetch_add(1, std::memory_order_acq_rel);
      Drain(tid);
      barrier_.arrive_and_wait();
    }
  }

  void RunSeed(Worker& w, uint32_t index) {
    std::optional<SeedGraph> built =
        BuildSeedGraph(graph_, to_original_, ordering_, ordering_.order[index],
                       options_, &w.counters);
    ++w.seeds_done;
    if (!built.has_value()) return;
    if (num_workers_ > 1) {
      w.cutting = std::make_shared<const SeedGraph>(std::move(*built));
      seed_step_(*w.cutting, options_, w.counters, w.consume);
      w.cutting.reset();
      return;
    }
    const uint64_t outputs_before = w.counters.outputs;
    w.engine.Retarget(*built);
    seed_step_(*built, options_, w.counters, w.consume);
    if (w.engine.stopped_early()) {
      // Seed `index` was mid-enumeration: re-running it while dropping
      // its first resume_ordinal emissions continues exactly here (each
      // seed re-enumerates deterministically).
      result_.has_resume = true;
      result_.resume_seed = index;
      result_.resume_ordinal = w.counters.outputs - outputs_before;
    }
    NoteEngine(w.engine);
  }

  // Every push is counted in `unfinished_` before the task becomes
  // visible, and a task is uncounted only after it has run (and pushed
  // all its spawns) or been dropped. So the count reads 0 only when no
  // task is queued or running.
  void Push(Worker& w, ParallelTask&& task) {
    unfinished_.fetch_add(1, std::memory_order_acq_rel);
    w.queue.Push(std::move(task));
  }

  void Drain(uint32_t tid) {
    ParallelTask task;
    while (true) {
      // An idle worker sweeps the queues only while some task is counted,
      // so hundreds of waiting threads do not contend for their locks.
      if (unfinished_.load(std::memory_order_acquire) > 0 &&
          PopOrSteal(tid, task)) {
        // After a stop the pending tasks are popped and dropped, so the
        // queues empty out and the stage ends quickly.
        if (!Stopping()) Execute(*workers_[tid], std::move(task));
        unfinished_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      // Once every worker has cut its seeds, no task appears except as
      // the spawn of a task that is still counted.
      if (cut_done_.load(std::memory_order_acquire) == num_workers_ &&
          unfinished_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::this_thread::yield();
    }
  }

  bool PopOrSteal(uint32_t tid, ParallelTask& out) {
    if (workers_[tid]->queue.TryPop(out)) return true;
    for (uint32_t off = 1; off < num_workers_; ++off) {
      const uint32_t victim = (tid + off) % num_workers_;
      if (workers_[victim]->queue.TrySteal(out)) return true;
    }
    return false;
  }

  void Execute(Worker& w, ParallelTask&& task) {
    w.engine.Retarget(*task.seed_graph);
    w.running = std::move(task.seed_graph);
    if (timeout_nanos_ > 0) {
      // t0 is the moment execution starts: the timeout bounds a task's
      // *processing* time (the straggler criterion), not its queue wait.
      w.engine.SetTaskDeadline(WallTimer::NowNanos() + timeout_nanos_);
    }
    w.engine.Run(task.state);
    w.running.reset();
    NoteEngine(w.engine);
  }

  void NoteEngine(const BranchEngine& engine) {
    if (engine.cancelled()) {
      observed_cancel_.store(true, std::memory_order_relaxed);
    } else if (engine.aborted()) {
      timed_out_.store(true, std::memory_order_relaxed);
    }
    if (engine.stopped_early()) {
      stopped_early_.store(true, std::memory_order_relaxed);
    }
  }

  bool CancelRequested() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  // True (and recorded) once the run must skip work: a hit result cap,
  // a cancel or a passed time limit. Only a run that actually skipped
  // or aborted work reports cancelled or timed_out.
  bool Stopping() {
    if (stopped_early_.load(std::memory_order_relaxed)) return true;
    if (CancelRequested()) {
      observed_cancel_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (global_deadline_ > 0 && WallTimer::NowNanos() > global_deadline_) {
      timed_out_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  const Graph& graph_;
  const std::vector<VertexId>& to_original_;
  const DegeneracyResult& ordering_;
  const EnumOptions& options_;
  const SeedStep seed_step_;
  EnumResult& result_;
  const uint32_t num_workers_;
  const int64_t timeout_nanos_;
  const int64_t global_deadline_;
  const uint32_t range_begin_;  // clamped shard slice of the seed order
  const uint32_t range_end_;
  const uint32_t batch_;      // seeds per worker per stage
  const uint64_t per_stage_;  // seeds per stage

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> unfinished_{0};  // queued or running tasks
  std::atomic<uint32_t> cut_done_{0};    // workers done cutting this stage
  std::atomic<bool> observed_cancel_{false};
  std::atomic<bool> stopped_early_{false};
  std::atomic<bool> timed_out_{false};
  // Emit slots claimed under options.max_results, by every worker.
  std::atomic<uint64_t> results_claimed_{0};

  // Written only between stages (before the first one, or in the
  // barrier's completion step) and read by the workers after it.
  uint64_t stage_ = 0;
  bool stop_ = false;
  uint64_t progress_done_ = 0;
  ProgressThrottle progress_throttle_;
  std::barrier<StageEnd> barrier_;
};

}  // namespace

StatusOr<EnumResult> RunSeedStages(const Graph& graph,
                                   const EnumOptions& options,
                                   uint32_t num_workers, double timeout_ms,
                                   SeedStep seed_step, ResultSink& sink) {
  KPLEX_RETURN_IF_ERROR(ValidateOptions(options));
  WallTimer timer;
  EnumResult result;
  // Theorem 3.5: restrict to the (q - k)-core and order the survivors;
  // both steps come from precomputed snapshot sections when available.
  const PreparedReduction prepared =
      PrepareReduction(graph, options, result.counters);
  result.total_seeds = prepared.core.graph.NumVertices();
  if (result.total_seeds > 0) {
    StageRunner(prepared, options, std::max(num_workers, 1u), timeout_ms,
                seed_step, sink, result)
        .Run();
  }
  result.num_plexes = result.counters.outputs;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace kplex
