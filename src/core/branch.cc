#include "core/branch.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace kplex {
namespace {

// A word mask of one branch call: W words on the stack at a fixed width,
// a slot of the engine's scratch at any width.
template <std::size_t W>
struct Mask {
  explicit Mask(uint64_t* /*any_width_slot*/) {}
  uint64_t* get() { return words; }
  uint64_t words[W];
};
template <>
struct Mask<kAnyWidth> {
  explicit Mask(uint64_t* any_width_slot) : words(any_width_slot) {}
  uint64_t* get() { return words; }
  uint64_t* words;
};

}  // namespace

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
  // The pivot key's fields (core/pivot.cc): local ids and d_{P∪C} below
  // 2^24, and |P| below 2^16. P holds the seed and at most k - 1 of its
  // non-neighbors, so |P| <= |N1| + k.
  assert(sg.universe < (uint32_t{1} << 24) &&
         sg.num_n1 + options_.k < (uint32_t{1} << 16));
  sg_ = &sg;
  words_ = (sg.universe + 63) / 64;
  pivot_.Retarget(sg);
  any_width_masks_.resize(3 * words_);
}

BranchEngine::Frame& BranchEngine::FrameAtDepth() {
  if (depth_ == frames_.size()) frames_.push_back(std::make_unique<Frame>());
  return *frames_[depth_];
}

void BranchEngine::Run(TaskState& state) {
  switch (words_) {
    case 1:
      Branch<1>(state);
      break;
    case 2:
      Branch<2>(state);
      break;
    default:
      Branch<kAnyWidth>(state);
  }
}

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

template <std::size_t W>
void BranchEngine::PrepareInclude(TaskState& state, uint32_t vp) {
  state.AddToP<W>(*sg_, vp);
  if (sg_->pairs.has_value()) {
    const uint64_t* allowed = sg_->pairs->Row(vp).words;
    kernels::AndInto(state.c.data(), allowed, state.Words<W>());
    kernels::AndInto(state.x.data(), allowed, state.Words<W>());
  }
}

void BranchEngine::EmitPlex(const uint64_t* members, std::size_t words) {
  if (options_.max_results > 0) {
    const uint64_t slot = claimed_->fetch_add(1);
    if (slot + 1 >= options_.max_results) stopped_early_ = true;
    if (slot >= options_.max_results) return;
  }
  emit_.clear();
  kernels::ForEachBit(members, words, [&](std::size_t v) {
    emit_.push_back(sg_->to_global[v]);
  });
  std::sort(emit_.begin(), emit_.end());
  ++counters_.outputs;
  sink_.Emit(emit_);
}

template <std::size_t W>
bool BranchEngine::HasExtenderOfPc(const TaskState& state,
                                   const uint64_t* pc, uint32_t pc_size) {
  const uint32_t k = options_.k;
  const std::size_t pc_words = PcWords<W>(*sg_);
  Mask<W> sat_pc(AnyWidthMask(2));
  for (std::size_t i = 0; i < pc_words; ++i) sat_pc.get()[i] = 0;
  kernels::ForEachBit(pc, pc_words, [&](std::size_t u) {
    const bool saturated =
        pc_size - pivot_.DegreePc(static_cast<uint32_t>(u)) == k;
    sat_pc.get()[u >> 6] |= uint64_t{saturated} << (u & 63);
  });
  const std::size_t words = state.Words<W>();
  const uint64_t* x = state.x.data();
  for (std::size_t i = 0; i < words; ++i) {
    for (uint64_t w = x[i]; w != 0; w &= w - 1) {
      const uint64_t* row =
          sg_->adj.Row(static_cast<uint32_t>((i << 6) + std::countr_zero(w)))
              .words;
      const uint32_t dx =
          static_cast<uint32_t>(kernels::AndCount(row, pc, pc_words));
      // x's own budget, and every saturated member of P ∪ C adjacent.
      if ((dx + k >= pc_size + 1) &
          kernels::IsSubset(sat_pc.get(), row, pc_words)) {
        return true;
      }
    }
  }
  return false;
}

template <std::size_t W>
void BranchEngine::Dispatch(TaskState& state) {
  if (TimeoutExpired()) {
    ++counters_.timeout_spawns;
    spawn_(std::move(state));
    return;
  }
  Branch<W>(state);
}

template <std::size_t W>
void BranchEngine::Branch(TaskState& state) {
  if (stopped_early_) return;
  ++counters_.branch_calls;
  if (CheckGlobalDeadline()) return;

  const uint32_t k = options_.k;
  const std::size_t words = state.Words<W>();
  const uint64_t* p = state.p.data();
  uint64_t* c = state.c.data();
  uint64_t* x = state.x.data();

  // Alg. 3 Lines 2-3: keep only vertices that still combine with P.
  // Saturated members of P admit only their neighbors: one AND of their
  // rows, applied to C and to X. Every member's row is ANDed in, OR'd
  // with all ones when the member is unsaturated, so no member takes a
  // branch.
  if (state.p_size >= k) {  // else d̄_P <= |P| < k: nobody saturated
    Mask<W> allowed(AnyWidthMask(0));
    for (std::size_t i = 0; i < words; ++i) allowed.get()[i] = ~uint64_t{0};
    kernels::ForEachBit(p, words, [&](std::size_t u) {
      const uint64_t unsaturated =
          -uint64_t{state.p_size - state.dp[u] != k};
      const uint64_t* row = sg_->adj.Row(static_cast<uint32_t>(u)).words;
      for (std::size_t i = 0; i < words; ++i) {
        allowed.get()[i] &= row[i] | unsaturated;
      }
    });
    kernels::AndInto(c, allowed.get(), words);
    kernels::AndInto(x, allowed.get(), words);
  }
  // Per-vertex budget, one pass over C ∪ X: P ∪ {v} keeps v within k
  // non-neighbors (counting v itself) iff dp[v] + k >= |P| + 1.
  if (state.p_size + 1 > k) {
    const uint32_t need = state.p_size + 1 - k;
    for (std::size_t i = 0; i < words; ++i) {
      uint64_t drop = 0;
      for (uint64_t w = c[i] | x[i]; w != 0; w &= w - 1) {
        const int bit = std::countr_zero(w);
        drop |= uint64_t{state.dp[(i << 6) + bit] < need} << bit;
      }
      c[i] &= ~drop;
      x[i] &= ~drop;
    }
  }

  const uint32_t c_size = static_cast<uint32_t>(kernels::Count(c, words));
  if (c_size == 0) {
    if (state.p_size >= options_.q && state.x.None()) EmitPlex(p, words);
    return;
  }
  // Size feasibility: even taking every candidate cannot reach q.
  const uint32_t pc_size = state.p_size + c_size;
  if (pc_size < options_.q) return;

  // Alg. 3 Lines 7-10: pivot selection.
  Mask<W> pc(AnyWidthMask(1));
  for (std::size_t i = 0; i < words; ++i) pc.get()[i] = p[i] | c[i];
  const PivotResult pivot = pivot_.Select<W>(state, pc.get());

  // Alg. 3 Lines 11-14: P ∪ C is already a k-plex — finish here.
  if (pivot.min_degree + k >= pc_size) {
    ++counters_.kplex_shortcuts;
    if (pc_size >= options_.q &&
        !HasExtenderOfPc<W>(state, pc.get(), pc_size)) {
      EmitPlex(pc.get(), words);
    }
    return;
  }

  uint32_t vp = pivot.vertex;
  if (pivot.in_p) {
    if (options_.branching != BranchingScheme::kRepickFromC) {
      BranchFaplexen<W>(state, vp);
      return;
    }
    // Lines 15-16: re-pick among the pivot's non-neighbors in C. That
    // set is non-empty: otherwise the pivot's d_{P∪C} would have
    // triggered the k-plex shortcut above.
    vp = pivot_.RepickFromC<W>(state, vp);
    if (vp == UINT32_MAX) return;  // defensive; unreachable
  }

  bool include_allowed = true;
  if (options_.upper_bound != UpperBoundMode::kNone) {
    const uint32_t ub_support =
        options_.upper_bound == UpperBoundMode::kOurs
            ? UbSupport<W>(*sg_, state, vp, k, bound_scratch_)
            : UbSupportSorted<W>(*sg_, state, vp, k, bound_scratch_);
    const uint32_t ub = std::min(ub_support, UbDegree<W>(*sg_, state, vp, k));
    if (ub < options_.q) {
      include_allowed = false;
      ++counters_.ub_prunes;
    }
  }
  BranchBinary<W>(state, vp, include_allowed);
}

template <std::size_t W>
void BranchEngine::BranchBinary(TaskState& state, uint32_t vp,
                                bool include_allowed) {
  if (include_allowed) {
    TaskState& child = FrameAtDepth().child;
    child = state;
    child.c.Reset(vp);
    PrepareInclude<W>(child, vp);
    ++depth_;
    Dispatch<W>(child);
    --depth_;
  }
  // Exclude branch (Line 20), reusing the parent state.
  state.c.Reset(vp);
  state.x.Set(vp);
  Dispatch<W>(state);
}

template <std::size_t W>
void BranchEngine::BranchFaplexen(TaskState& state, uint32_t vp) {
  // Eq (4)-(6). vp lies in P; its non-neighbors in C drive the split.
  Frame& frame = FrameAtDepth();
  ++depth_;
  std::vector<uint32_t>& ws = frame.ws;
  ws.clear();
  kernels::ForEachAndNotBit(state.c.data(), sg_->adj.Row(vp).words,
                            state.Words<W>(), [&](std::size_t w) {
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
      Dispatch<W>(frame.child);
      // Extend the prefix with w_i; if that breaks the k-plex property
      // no later branch has a valid P (hereditariness), so stop.
      Mask<W> saturated(AnyWidthMask(0));
      run.Saturated<W>(options_.k, saturated.get());
      if (!run.c.Test(wi) ||
          !run.CanAdd<W>(*sg_, saturated.get(), wi, options_.k)) {
        break;
      }
      run.c.Reset(wi);
      PrepareInclude<W>(run, wi);
      if (i == s) {
        // Final branch (Eq (6)): all of w_1..w_s in P. vp is saturated
        // now, so the remaining non-neighbors w_{s+1}..w_l can never
        // join any extension; drop them from C (they need not enter X
        // either: adding one would overflow vp's budget in any
        // superset).
        for (std::size_t j = s; j < ws.size(); ++j) run.c.Reset(ws[j]);
        Dispatch<W>(run);
      }
    }
  }
  --depth_;
}

}  // namespace kplex
