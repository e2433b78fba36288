// BranchEngine: the recursive branch-and-bound search of Algorithm 3,
// covering the paper's default scheme ("Ours": pivot re-picking from C
// plus Eq (3) upper-bound pruning), the "Ours_P" FaPlexen branching
// variant (Eq (4)-(6)), and the ablation configurations of Tables 5/6.
//
// One engine is constructed per (seed graph, task execution); scratch
// buffers are reused across the recursion, which never interleaves two
// computations, and so are the include-branch child states, one per
// recursion depth: a warmed engine allocates nothing per branch. The
// optional per-task timeout implements the straggler decomposition of
// Section 6: once the deadline passes, pending recursive calls are
// re-packaged as standalone TaskStates and handed to the spawn callback
// instead of being executed inline.

#ifndef KPLEX_CORE_BRANCH_H_
#define KPLEX_CORE_BRANCH_H_

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

  BranchEngine(const SeedGraph& sg, const EnumOptions& options,
               ResultSink& sink, AlgoCounters& counters);

  /// Enables timeout decomposition: recursive calls issued after
  /// `deadline_nanos` (WallTimer::NowNanos clock) are spawned through
  /// `spawn` instead of executed.
  void SetTaskTimeout(int64_t deadline_nanos, SpawnFn spawn) {
    deadline_nanos_ = deadline_nanos;
    spawn_ = std::move(spawn);
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

  /// True when the engine stopped because options.max_results was hit.
  bool stopped_early() const { return stopped_early_; }

  /// Runs Algorithm 3 on `state` (consumed).
  void Run(TaskState& state);

 private:
  void Branch(TaskState& state);
  void BranchBinary(TaskState& state, uint32_t pivot, bool include_allowed);
  void BranchFaplexen(TaskState& state, uint32_t pivot);
  void Dispatch(TaskState& state);

  /// Moves vp from C into P and applies the R2 matrix row of vp to C and
  /// X (Theorems 5.14/5.15 via one AND, fringe bits unaffected).
  void PrepareInclude(TaskState& state, uint32_t vp);

  /// In-place saturation + budget filter of `set` w.r.t. state.p.
  void FilterSet(const TaskState& state, const DynamicBitset& saturated,
                 DynamicBitset& set);

  /// Maximality check of P ∪ C (Alg. 3 Line 12): does some x in X extend
  /// it? Uses the d_{P∪C} table of the last pivot selection.
  bool HasExtenderOfPc(const TaskState& state, const DynamicBitset& pc,
                       uint32_t pc_size);

  void EmitPlex(const DynamicBitset& members);

  bool TimeoutExpired() const {
    return spawn_ && WallTimer::NowNanos() > deadline_nanos_;
  }
  bool CheckGlobalDeadline();

  const SeedGraph& sg_;
  const EnumOptions& options_;
  ResultSink& sink_;
  AlgoCounters& counters_;
  PivotSelector pivot_;
  BoundScratch bound_scratch_;

  // Reusable scratch.
  DynamicBitset saturated_;
  DynamicBitset pc_;
  DynamicBitset sat_pc_;
  std::vector<uint32_t> ws_;
  std::vector<VertexId> emit_;
  // frames_[d] is the include child of the BranchBinary call with d
  // include frames above it on the stack (`depth_` of them are live).
  // Copy-assigning into a frame reuses its buffers; unique_ptr keeps a
  // frame's address fixed while the vector grows. A frame moved out by
  // a timeout spawn grows again on its next use.
  std::vector<std::unique_ptr<TaskState>> frames_;
  std::size_t depth_ = 0;

  int64_t deadline_nanos_ = 0;
  SpawnFn spawn_;
  int64_t global_deadline_nanos_ = 0;
  bool aborted_ = false;
  bool cancelled_ = false;
  bool stopped_early_ = false;
};

}  // namespace kplex

#endif  // KPLEX_CORE_BRANCH_H_
