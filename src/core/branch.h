// BranchEngine: the recursive branch-and-bound search of Algorithm 3,
// covering the paper's default scheme ("Ours": pivot re-picking from C
// plus Eq (3) upper-bound pruning), the "Ours_P" FaPlexen branching
// variant (Eq (4)-(6)), and the ablation configurations of Tables 5/6.
//
// One branch body serves every option. It reads P, C, X and the
// adjacency rows as raw 64-bit words at a width W: one word or two,
// fixed at compile time, or kAnyWidth, the seed graph's word count read
// at run time (core/task_state.h). Retarget computes that word count,
// (universe + 63) / 64, and Run picks the instantiation once per task.
// Branch-and-bound never leaves a seed graph, whose universe is the
// seed's two-hop neighbourhood, so on the benchmark workloads nearly
// every call runs at one or two words (docs/ARCHITECTURE.md).
//
// One engine serves a whole run of one worker: Retarget points it at
// each task's seed graph. Scratch buffers are reused across tasks and
// across the recursion, which never interleaves two computations, and
// so are the child states of both branchings, one frame per recursion
// depth: a warmed engine allocates nothing per branch, and re-targeting
// it at a seed graph whose universe fits allocates nothing either. The
// optional per-task timeout implements the straggler decomposition of
// Section 6: once the deadline passes, pending recursive calls are
// re-packaged as standalone TaskStates and handed to the spawn callback
// instead of being executed inline; the worker that runs one picks its
// width from its own Retarget.

#ifndef KPLEX_CORE_BRANCH_H_
#define KPLEX_CORE_BRANCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/counters.h"
#include "core/options.h"
#include "core/pivot.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "core/task_state.h"
#include "util/timer.h"

namespace kplex {

class BranchEngine {
 public:
  using SpawnFn = std::function<void(TaskState&&)>;

  /// An engine with no seed graph yet; Retarget it before each Run.
  BranchEngine(const EnumOptions& options, ResultSink& sink,
               AlgoCounters& counters);
  BranchEngine(const SeedGraph& sg, const EnumOptions& options,
               ResultSink& sink, AlgoCounters& counters);

  /// Points the engine at `sg` (borrowed until the next Retarget). The
  /// scratch buffers and frames keep their capacity.
  void Retarget(const SeedGraph& sg);

  /// Enables timeout decomposition: once a task's deadline (see
  /// SetTaskDeadline) has passed, its recursive calls are handed to
  /// `spawn` instead of executed.
  void SetSpawn(SpawnFn spawn) { spawn_ = std::move(spawn); }

  /// Deadline of the next task, on the WallTimer::NowNanos clock.
  void SetTaskDeadline(int64_t deadline_nanos) {
    deadline_nanos_ = deadline_nanos;
  }

  /// Enables a global soft deadline; when exceeded, the engine unwinds
  /// and `aborted()` turns true.
  void SetGlobalDeadline(int64_t deadline_nanos) {
    global_deadline_nanos_ = deadline_nanos;
  }

  bool aborted() const { return aborted_; }

  /// True when the abort was triggered by options.cancel (as opposed to
  /// the global deadline).
  bool cancelled() const { return cancelled_; }

  /// With options.max_results > 0, each emit first claims a slot of
  /// `claimed`, one count shared by every engine of a run, and an
  /// engine stops once a claim fails, or once its claim takes the last
  /// slot. Until this is called, the engine claims from its own count.
  void ShareResultCap(std::atomic<uint64_t>* claimed) { claimed_ = claimed; }

  /// True when the engine stopped because options.max_results was hit.
  bool stopped_early() const { return stopped_early_; }

  /// Runs Algorithm 3 on `state` (consumed).
  void Run(TaskState& state);

 private:
  // The branch body at width W; branch.cc instantiates it for W = 1, 2
  // and kAnyWidth.
  template <std::size_t W>
  void Branch(TaskState& state);
  template <std::size_t W>
  void BranchBinary(TaskState& state, uint32_t pivot, bool include_allowed);
  template <std::size_t W>
  void BranchFaplexen(TaskState& state, uint32_t pivot);
  template <std::size_t W>
  void Dispatch(TaskState& state);

  /// Moves vp from C into P and applies the R2 matrix row of vp to C and
  /// X (Theorems 5.14/5.15 via one AND, fringe bits unaffected).
  template <std::size_t W>
  void PrepareInclude(TaskState& state, uint32_t vp);

  /// Maximality check of P ∪ C (Alg. 3 Line 12): does some x in X extend
  /// it? Uses the d_{P∪C} table of the last pivot selection.
  template <std::size_t W>
  bool HasExtenderOfPc(const TaskState& state, const uint64_t* pc,
                       uint32_t pc_size);

  void EmitPlex(const uint64_t* members, std::size_t words);

  bool TimeoutExpired() const {
    return spawn_ && WallTimer::NowNanos() > deadline_nanos_;
  }
  bool CheckGlobalDeadline();

  /// Slot `i` of the any-width masks (see any_width_masks_).
  uint64_t* AnyWidthMask(std::size_t i) {
    return any_width_masks_.data() + i * words_;
  }

  const SeedGraph* sg_ = nullptr;
  /// Words of the seed graph's universe, (universe + 63) / 64.
  std::size_t words_ = 0;
  const EnumOptions& options_;
  ResultSink& sink_;
  AlgoCounters& counters_;
  PivotSelector pivot_;
  BoundScratch bound_scratch_;

  // Reusable scratch. A call's word masks (the saturated rows' AND, P ∪ C
  // and P ∪ C's saturated members) live on the stack at a fixed width
  // and in these three words_-word slots at any width; no mask is live
  // across a recursive call.
  std::vector<uint64_t> any_width_masks_;
  std::vector<VertexId> emit_;
  // The states a branching call keeps live while its children run:
  // BranchBinary uses `child` for its include branch, BranchFaplexen all
  // three for its prefix, its current child and its split vertices.
  struct Frame {
    TaskState child;
    TaskState run;
    std::vector<uint32_t> ws;
  };
  // frames_[d] belongs to the branching call with d frame-holding calls
  // above it on the stack (`depth_` of them are live). Copy-assigning
  // into a frame reuses its buffers; unique_ptr keeps a frame's address
  // fixed while the vector grows. A state moved out by a timeout spawn
  // grows again on its next use.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::size_t depth_ = 0;
  Frame& FrameAtDepth();

  int64_t deadline_nanos_ = 0;
  SpawnFn spawn_;
  int64_t global_deadline_nanos_ = 0;
  bool aborted_ = false;
  bool cancelled_ = false;
  bool stopped_early_ = false;
  std::atomic<uint64_t> own_claims_{0};
  std::atomic<uint64_t>* claimed_ = &own_claims_;
};

}  // namespace kplex

#endif  // KPLEX_CORE_BRANCH_H_
