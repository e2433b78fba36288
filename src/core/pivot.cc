#include "core/pivot.h"

#include <algorithm>

namespace kplex {
namespace {

// One member's rank under Line 8, as a single 64-bit key; the minimum
// key is the pivot. High to low: d_{P∪C} in 24 bits, 0xffff − d̄_P in 16
// bits (the saturation tie-break: more non-neighbors in P sorts first),
// then the local id in 24 bits, so among equal (d, d̄_P) the smallest id
// wins. The fields hold because universe < 2^24 bounds every id and
// every d_{P∪C}, and |P| < 2^16 bounds d̄_P, as `dp` being uint16_t
// already requires; BranchEngine::Retarget asserts both. `nn_mask` is
// 0xffff, or 0 to turn the tie-break off. No member takes a branch of
// its own: the caller keeps the smaller of two keys with a conditional
// select.
uint64_t PivotKey(uint32_t d, uint32_t nn, uint32_t nn_mask, uint32_t v) {
  return uint64_t{d} << 40 | uint64_t{0xffff - (nn & nn_mask)} << 24 | v;
}
constexpr uint64_t kKeyIdMask = (uint64_t{1} << 24) - 1;

}  // namespace

template <std::size_t W>
PivotResult PivotSelector::Select(const TaskState& state,
                                  const uint64_t* pc) {
  const SeedGraph& sg = *sg_;
  const std::size_t words = PcWords<W>(sg);
  uint64_t best = UINT64_MAX;
  kernels::ForEachBit(pc, words, [&](std::size_t v) {
    const uint32_t d = static_cast<uint32_t>(
        kernels::AndCount(sg.adj.Row(v).words, pc, words));
    degree_pc_[v] = d;
    best = std::min(best, PivotKey(d, state.NonNeighborsInP(v), nn_mask_,
                                   static_cast<uint32_t>(v)));
  });
  PivotResult result;
  result.vertex = static_cast<uint32_t>(best & kKeyIdMask);
  result.min_degree = static_cast<uint32_t>(best >> 40);
  result.in_p = state.p.Test(result.vertex);
  return result;
}

template <std::size_t W>
uint32_t PivotSelector::RepickFromC(const TaskState& state, uint32_t pivot) {
  const SeedGraph& sg = *sg_;
  uint64_t best = UINT64_MAX;
  kernels::ForEachAndNotBit(
      state.c.data(), sg.adj.Row(pivot).words, state.Words<W>(),
      [&](std::size_t v) {
        const uint32_t u = static_cast<uint32_t>(v);
        best = std::min(best, PivotKey(degree_pc_[u],
                                       state.NonNeighborsInP(u), nn_mask_, u));
      });
  return best == UINT64_MAX ? UINT32_MAX
                            : static_cast<uint32_t>(best & kKeyIdMask);
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
