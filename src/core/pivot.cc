#include "core/pivot.h"

namespace kplex {

template <std::size_t W>
PivotResult PivotSelector::Select(const TaskState& state,
                                  const uint64_t* pc) {
  const SeedGraph& sg = *sg_;
  const std::size_t words = PcWords<W>(sg);
  PivotResult best;
  bool have = false;
  uint32_t best_nonneighbors = 0;
  kernels::ForEachBit(pc, words, [&](std::size_t v) {
    const uint32_t d = static_cast<uint32_t>(
        kernels::AndCount(sg.adj.Row(v).words, pc, words));
    degree_pc_[v] = d;
    const uint32_t nn = saturation_tiebreak_
                            ? state.NonNeighborsInP(static_cast<uint32_t>(v))
                            : 0;
    if (!have || d < best.min_degree ||
        (d == best.min_degree && nn > best_nonneighbors)) {
      have = true;
      best.vertex = static_cast<uint32_t>(v);
      best.min_degree = d;
      best_nonneighbors = nn;
    }
  });
  best.in_p = state.p.Test(best.vertex);
  return best;
}

template <std::size_t W>
uint32_t PivotSelector::RepickFromC(const TaskState& state, uint32_t pivot) {
  const SeedGraph& sg = *sg_;
  uint32_t best = UINT32_MAX;
  uint32_t best_degree = 0;
  uint32_t best_nonneighbors = 0;
  kernels::ForEachAndNotBit(
      state.c.data(), sg.adj.Row(pivot).words, state.Words<W>(),
      [&](std::size_t v) {
        const uint32_t d = degree_pc_[v];
        const uint32_t nn =
            saturation_tiebreak_
                ? state.NonNeighborsInP(static_cast<uint32_t>(v))
                : 0;
        if (best == UINT32_MAX || d < best_degree ||
            (d == best_degree && nn > best_nonneighbors)) {
          best = static_cast<uint32_t>(v);
          best_degree = d;
          best_nonneighbors = nn;
        }
      });
  return best;
}

// The branch body's widths (core/branch.cc).
template PivotResult PivotSelector::Select<1>(const TaskState&,
                                              const uint64_t*);
template PivotResult PivotSelector::Select<2>(const TaskState&,
                                              const uint64_t*);
template PivotResult PivotSelector::Select<kAnyWidth>(const TaskState&,
                                                      const uint64_t*);
template uint32_t PivotSelector::RepickFromC<1>(const TaskState&, uint32_t);
template uint32_t PivotSelector::RepickFromC<2>(const TaskState&, uint32_t);
template uint32_t PivotSelector::RepickFromC<kAnyWidth>(const TaskState&,
                                                        uint32_t);

}  // namespace kplex
