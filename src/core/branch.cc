#include "core/branch.h"

#include <algorithm>

namespace kplex {

BranchEngine::BranchEngine(const EnumOptions& options, ResultSink& sink,
                           AlgoCounters& counters)
    : options_(options), sink_(sink), counters_(counters),
      pivot_(options.pivot_saturation_tiebreak) {}

BranchEngine::BranchEngine(const SeedGraph& sg, const EnumOptions& options,
                           ResultSink& sink, AlgoCounters& counters)
    : BranchEngine(options, sink, counters) {
  Retarget(sg);
}

void BranchEngine::Retarget(const SeedGraph& sg) {
  sg_ = &sg;
  pivot_.Retarget(sg);
  saturated_.ResizeClear(sg.universe);
  pc_.ResizeClear(sg.universe);
  sat_pc_.ResizeClear(sg.universe);
}

BranchEngine::Frame& BranchEngine::FrameAtDepth() {
  if (depth_ == frames_.size()) frames_.push_back(std::make_unique<Frame>());
  return *frames_[depth_];
}

void BranchEngine::Run(TaskState& state) { Branch(state); }

bool BranchEngine::CheckGlobalDeadline() {
  if (aborted_) return true;
  if ((counters_.branch_calls & 0xfff) == 0) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      aborted_ = true;
      cancelled_ = true;
    } else if (global_deadline_nanos_ > 0 &&
               WallTimer::NowNanos() > global_deadline_nanos_) {
      aborted_ = true;
    }
  }
  return aborted_;
}

void BranchEngine::FilterSet(const TaskState& state,
                             const DynamicBitset& saturated,
                             DynamicBitset& set) {
  // Saturated members of P admit only their neighbors.
  saturated.ForEach([&](std::size_t u) {
    set.AndWith(sg_->adj.Row(static_cast<uint32_t>(u)));
  });
  // Per-vertex budget: P ∪ {v} keeps v within k non-neighbors
  // (counting v itself) iff dp[v] + k >= |P| + 1.
  if (state.p_size + 1 > options_.k) {
    const uint32_t need = state.p_size + 1 - options_.k;
    // ForEach iterates on per-word snapshots, so resetting the current
    // bit during iteration is safe.
    set.ForEach([&](std::size_t v) {
      if (state.dp[v] < need) set.Reset(v);
    });
  }
}

void BranchEngine::PrepareInclude(TaskState& state, uint32_t vp) {
  state.AddToP(*sg_, vp);
  if (sg_->pairs.has_value()) {
    const BitSpan allowed = sg_->pairs->Row(vp);
    state.c.AndWith(allowed);
    state.x.AndWith(allowed);
  }
}

void BranchEngine::EmitPlex(const DynamicBitset& members) {
  emit_.clear();
  members.ForEach([&](std::size_t v) {
    emit_.push_back(sg_->to_global[v]);
  });
  std::sort(emit_.begin(), emit_.end());
  ++counters_.outputs;
  sink_.Emit(emit_);
  if (options_.max_results > 0 &&
      counters_.outputs >= options_.max_results) {
    stopped_early_ = true;
  }
}

bool BranchEngine::HasExtenderOfPc(const TaskState& state,
                                   const DynamicBitset& pc,
                                   uint32_t pc_size) {
  const uint32_t k = options_.k;
  sat_pc_.ResetAll();
  pc.ForEach([&](std::size_t u) {
    if (pc_size - pivot_.DegreePc(static_cast<uint32_t>(u)) == k) {
      sat_pc_.Set(u);
    }
  });
  for (std::size_t x = state.x.FindFirst(); x != DynamicBitset::kNpos;
       x = state.x.FindNext(x + 1)) {
    const BitSpan row = sg_->adj.Row(static_cast<uint32_t>(x));
    const uint32_t dx =
        static_cast<uint32_t>(row.AndCountLimit(pc, sg_->vi_words));
    if (dx + k < pc_size + 1) continue;
    if (sat_pc_.IsSubsetOf(row)) return true;
  }
  return false;
}

void BranchEngine::Dispatch(TaskState& state) {
  if (TimeoutExpired()) {
    ++counters_.timeout_spawns;
    spawn_(std::move(state));
    return;
  }
  Branch(state);
}

void BranchEngine::Branch(TaskState& state) {
  if (stopped_early_) return;
  ++counters_.branch_calls;
  if (CheckGlobalDeadline()) return;

  // Alg. 3 Lines 2-3: keep only vertices that still combine with P.
  state.ComputeSaturated(*sg_, options_.k, saturated_);
  FilterSet(state, saturated_, state.c);
  FilterSet(state, saturated_, state.x);

  const uint32_t c_size = static_cast<uint32_t>(state.c.Count());
  if (c_size == 0) {
    if (state.p_size >= options_.q && state.x.None()) EmitPlex(state.p);
    return;
  }
  // Size feasibility: even taking every candidate cannot reach q.
  if (state.p_size + c_size < options_.q) return;

  // Alg. 3 Lines 7-10: pivot selection.
  pc_ = state.p;
  pc_.OrWith(state.c);
  const PivotResult pivot = pivot_.Select(state, pc_);

  // Alg. 3 Lines 11-14: P ∪ C is already a k-plex — finish here.
  if (pivot.min_degree + options_.k >= state.p_size + c_size) {
    ++counters_.kplex_shortcuts;
    if (state.p_size + c_size >= options_.q &&
        !HasExtenderOfPc(state, pc_, state.p_size + c_size)) {
      EmitPlex(pc_);
    }
    return;
  }

  uint32_t vp = pivot.vertex;
  if (pivot.in_p) {
    if (options_.branching != BranchingScheme::kRepickFromC) {
      BranchFaplexen(state, vp);
      return;
    }
    // Lines 15-16: re-pick among the pivot's non-neighbors in C. That
    // set is non-empty: otherwise the pivot's d_{P∪C} would have
    // triggered the k-plex shortcut above.
    vp = pivot_.RepickFromC(state, vp);
    if (vp == UINT32_MAX) return;  // defensive; unreachable
  }

  bool include_allowed = true;
  if (options_.upper_bound != UpperBoundMode::kNone) {
    const uint32_t ub_support =
        options_.upper_bound == UpperBoundMode::kOurs
            ? UbSupport(*sg_, state, vp, options_.k, bound_scratch_)
            : UbSupportSorted(*sg_, state, vp, options_.k, bound_scratch_);
    const uint32_t ub =
        std::min(ub_support, UbDegree(*sg_, state, vp, options_.k));
    if (ub < options_.q) {
      include_allowed = false;
      ++counters_.ub_prunes;
    }
  }
  BranchBinary(state, vp, include_allowed);
}

void BranchEngine::BranchBinary(TaskState& state, uint32_t vp,
                                bool include_allowed) {
  if (include_allowed) {
    TaskState& child = FrameAtDepth().child;
    child = state;
    child.c.Reset(vp);
    PrepareInclude(child, vp);
    ++depth_;
    Dispatch(child);
    --depth_;
  }
  // Exclude branch (Line 20), reusing the parent state.
  state.c.Reset(vp);
  state.x.Set(vp);
  Dispatch(state);
}

void BranchEngine::BranchFaplexen(TaskState& state, uint32_t vp) {
  // Eq (4)-(6). vp lies in P; its non-neighbors in C drive the split.
  Frame& frame = FrameAtDepth();
  ++depth_;
  std::vector<uint32_t>& ws = frame.ws;
  ws.clear();
  state.c.ForEachAndNot(sg_->adj.Row(vp), [&](std::size_t w) {
    ws.push_back(static_cast<uint32_t>(w));
  });
  const int64_t budget = static_cast<int64_t>(options_.k) -
                         static_cast<int64_t>(state.NonNeighborsInP(vp));
  // Both guards are unreachable: the k-plex shortcut fires first.
  if (!ws.empty() && budget >= 1) {
    const std::size_t s =
        std::min<std::size_t>(static_cast<std::size_t>(budget), ws.size());
    // `run` accumulates the include-prefix w_1 .. w_{i-1}.
    TaskState& run = frame.run;
    run = state;
    for (std::size_t i = 1; i <= s; ++i) {
      const uint32_t wi = ws[i - 1];
      // Branch i: keep the prefix, exclude w_i  (Eq (4) for i = 1,
      // Eq (5) otherwise).
      frame.child = run;
      frame.child.c.Reset(wi);
      frame.child.x.Set(wi);
      Dispatch(frame.child);
      // Extend the prefix with w_i; if that breaks the k-plex property
      // no later branch has a valid P (hereditariness), so stop.
      run.ComputeSaturated(*sg_, options_.k, saturated_);
      if (!run.c.Test(wi) ||
          !run.CanAdd(*sg_, saturated_, wi, options_.k)) {
        break;
      }
      run.c.Reset(wi);
      PrepareInclude(run, wi);
      if (i == s) {
        // Final branch (Eq (6)): all of w_1..w_s in P. vp is saturated
        // now, so the remaining non-neighbors w_{s+1}..w_l can never
        // join any extension; drop them from C (they need not enter X
        // either: adding one would overflow vp's budget in any
        // superset).
        for (std::size_t j = s; j < ws.size(); ++j) run.c.Reset(ws[j]);
        Dispatch(run);
      }
    }
  }
  --depth_;
}

}  // namespace kplex
