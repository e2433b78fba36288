// Pivot selection (Algorithm 3, Lines 7-10 and 15-16). The pivot is a
// vertex of P ∪ C with minimum degree in G[P ∪ C]; ties are broken by
// maximum number of non-neighbors in P (pushing vertices toward
// saturation, which in turn prunes more candidates), then by smallest
// local id for determinism. When the winner lies in P, the paper's
// default re-picks among its non-neighbors in C with the same rules.
// Both picks rank each member by one 64-bit key that orders by all three
// rules at once and keep the minimum, with no branch per member
// (pivot.cc).
//
// Select and RepickFromC are written once, over raw words at the branch
// body's width W (core/task_state.h); pivot.cc instantiates them for
// W = 1, 2 and kAnyWidth. The DynamicBitset overload of Select and the
// default W serve the tests and benches.

#ifndef KPLEX_CORE_PIVOT_H_
#define KPLEX_CORE_PIVOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seed_graph.h"
#include "core/task_state.h"
#include "util/bitset.h"

namespace kplex {

struct PivotResult {
  uint32_t vertex = 0;      ///< the selected pivot
  uint32_t min_degree = 0;  ///< its degree within G[P ∪ C]
  bool in_p = false;        ///< whether it lies in P
};

class PivotSelector {
 public:
  /// `saturation_tiebreak` selects the paper's Line-8 tie rule; when
  /// false, ties are broken by smallest local id only. Retarget before
  /// the first Select.
  explicit PivotSelector(bool saturation_tiebreak)
      : nn_mask_(saturation_tiebreak ? 0xffff : 0) {}
  explicit PivotSelector(const SeedGraph& sg, bool saturation_tiebreak = true)
      : PivotSelector(saturation_tiebreak) {
    Retarget(sg);
  }

  /// Points the selector at `sg`, keeping the degree table's capacity.
  void Retarget(const SeedGraph& sg) {
    sg_ = &sg;
    if (degree_pc_.size() < sg.universe) degree_pc_.resize(sg.universe, 0);
  }

  /// Computes d_{P∪C} for all members and selects the pivot. `pc` must
  /// be P ∪ C; its first PcWords<W>() words are read. The degree table
  /// remains valid until the next call and is reused by RepickFromC.
  template <std::size_t W>
  PivotResult Select(const TaskState& state, const uint64_t* pc);
  PivotResult Select(const TaskState& state, const DynamicBitset& pc) {
    return Select<kAnyWidth>(state, pc.data());
  }

  /// Lines 15-16: re-pick among the non-neighbors of `pivot` in C using
  /// the same rules. Requires Select() to have been called for this
  /// state. The caller guarantees N̄_C(pivot) is non-empty.
  template <std::size_t W = kAnyWidth>
  uint32_t RepickFromC(const TaskState& state, uint32_t pivot);

  /// d_{P∪C}(v) from the last Select() call.
  uint32_t DegreePc(uint32_t v) const { return degree_pc_[v]; }

 private:
  const SeedGraph* sg_ = nullptr;
  /// Masks d̄_P in the pivot key (pivot.cc): 0xffff with the tie-break,
  /// 0 without.
  uint32_t nn_mask_;
  std::vector<uint32_t> degree_pc_;
};

}  // namespace kplex

#endif  // KPLEX_CORE_PIVOT_H_
