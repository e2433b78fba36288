#include "core/bounds.h"

#include <algorithm>

// Algorithm 4 core, shared by the three support bounds below: greedily
// admit pivot-neighbors in C into K; each admitted candidate decrements
// the support of its scarcest non-neighbor in P, and a candidate whose
// scarcest non-neighbor is exhausted is excluded. The proof of
// Theorem 5.5 shows |K| dominates every feasible candidate subset
// regardless of visit order, so the id-ordered and sorted variants are
// both admissible.
//
// Each bound reads sup only at P's members, and writes every one of them
// before the first read, so the scratch is sized, never cleared.

namespace kplex {
namespace {

// sup[u] = sup_P(u) for every u in P.
template <std::size_t W>
void FillSupport(const SeedGraph& sg, const TaskState& state, uint32_t k,
                 std::vector<int32_t>& sup) {
  sup.resize(sg.universe);
  kernels::ForEachBit(state.p.data(), state.Words<W>(), [&](std::size_t u) {
    sup[u] = state.Support(static_cast<uint32_t>(u), k);
  });
}

// Algorithm 4 for one candidate w: w joins K unless its scarcest
// non-neighbor in P has no support left; joining spends one unit of it.
// The scarcest is the minimum of (sup << 32) | id over w's non-neighbors
// in P, the first strict minimum in id order, found by conditional
// selects. sup lies in [0, k]: P is a k-plex, and a unit is spent only
// while some is left.
template <std::size_t W>
bool JoinsK(const SeedGraph& sg, const TaskState& state, uint32_t w,
            std::vector<int32_t>& sup) {
  uint64_t scarcest = UINT64_MAX;
  kernels::ForEachAndNotBit(
      state.p.data(), sg.adj.Row(w).words, state.Words<W>(),
      [&](std::size_t u) {
        scarcest = std::min(
            scarcest, uint64_t{static_cast<uint32_t>(sup[u])} << 32 | u);
      });
  if (scarcest == UINT64_MAX) return true;  // w constrains nobody in P
  if (scarcest >> 32 == 0) return false;
  --sup[static_cast<uint32_t>(scarcest)];
  return true;
}

// min(init, min_{u in P} deg_{G_i}(u)).
template <std::size_t W>
uint32_t MinDegreeInP(const SeedGraph& sg, const TaskState& state,
                      uint32_t init) {
  uint32_t min_deg = init;
  kernels::ForEachBit(state.p.data(), state.Words<W>(), [&](std::size_t u) {
    min_deg = std::min(min_deg, sg.deg_vi[u]);
  });
  return min_deg;
}

}  // namespace

template <std::size_t W>
uint32_t UbDegree(const SeedGraph& sg, const TaskState& state, uint32_t pivot,
                  uint32_t k) {
  return MinDegreeInP<W>(sg, state, sg.deg_vi[pivot]) + k;
}

template <std::size_t W>
uint32_t UbSupport(const SeedGraph& sg, const TaskState& state,
                   uint32_t pivot, uint32_t k, BoundScratch& scratch) {
  auto& sup = scratch.support;
  FillSupport<W>(sg, state, k, sup);
  uint32_t ub = state.p_size +
                static_cast<uint32_t>(state.Support(pivot, k));
  // K: neighbors of the pivot inside C, id order.
  kernels::ForEachAndBit(state.c.data(), sg.adj.Row(pivot).words,
                         state.Words<W>(), [&](std::size_t w) {
                           if (JoinsK<W>(sg, state,
                                         static_cast<uint32_t>(w), sup)) {
                             ++ub;
                           }
                         });
  return ub;
}

template <std::size_t W>
uint32_t UbSupportSorted(const SeedGraph& sg, const TaskState& state,
                         uint32_t pivot, uint32_t k, BoundScratch& scratch) {
  auto& sup = scratch.support;
  FillSupport<W>(sg, state, k, sup);

  auto& ws = scratch.sorted_ws;
  ws.clear();
  kernels::ForEachAndBit(
      state.c.data(), sg.adj.Row(pivot).words, state.Words<W>(),
      [&](std::size_t w) { ws.push_back(static_cast<uint32_t>(w)); });
  // The deliberate per-call sort: fewest non-neighbors in P first.
  std::sort(ws.begin(), ws.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t na = state.NonNeighborsInP(a);
    const uint32_t nb = state.NonNeighborsInP(b);
    return na != nb ? na < nb : a < b;
  });

  uint32_t ub = state.p_size +
                static_cast<uint32_t>(state.Support(pivot, k));
  for (uint32_t w : ws) {
    if (JoinsK<W>(sg, state, w, sup)) ++ub;
  }
  return ub;
}

uint32_t UbSubtask(const SeedGraph& sg, const TaskState& state, uint32_t k,
                   BoundScratch& scratch) {
  auto& sup = scratch.support;
  FillSupport<kAnyWidth>(sg, state, k, sup);
  // Theorem 5.7: v_p = v_i with sup forced to 0 — no candidate is a
  // non-neighbor of the seed, so P_m gains only |K| vertices beyond P_S.
  uint32_t k_size = 0;
  state.c.ForEach([&](std::size_t w) {
    if (JoinsK<kAnyWidth>(sg, state, static_cast<uint32_t>(w), sup)) {
      ++k_size;
    }
  });
  const uint32_t ub_support = state.p_size + k_size;
  const uint32_t ub_degree =
      MinDegreeInP<kAnyWidth>(sg, state, UINT32_MAX) + k;
  return std::min(ub_support, ub_degree);
}

// The branch body's widths (core/branch.cc).
template uint32_t UbDegree<1>(const SeedGraph&, const TaskState&, uint32_t,
                              uint32_t);
template uint32_t UbDegree<2>(const SeedGraph&, const TaskState&, uint32_t,
                              uint32_t);
template uint32_t UbDegree<kAnyWidth>(const SeedGraph&, const TaskState&,
                                      uint32_t, uint32_t);
template uint32_t UbSupport<1>(const SeedGraph&, const TaskState&, uint32_t,
                               uint32_t, BoundScratch&);
template uint32_t UbSupport<2>(const SeedGraph&, const TaskState&, uint32_t,
                               uint32_t, BoundScratch&);
template uint32_t UbSupport<kAnyWidth>(const SeedGraph&, const TaskState&,
                                       uint32_t, uint32_t, BoundScratch&);
template uint32_t UbSupportSorted<1>(const SeedGraph&, const TaskState&,
                                     uint32_t, uint32_t, BoundScratch&);
template uint32_t UbSupportSorted<2>(const SeedGraph&, const TaskState&,
                                     uint32_t, uint32_t, BoundScratch&);
template uint32_t UbSupportSorted<kAnyWidth>(const SeedGraph&,
                                             const TaskState&, uint32_t,
                                             uint32_t, BoundScratch&);

}  // namespace kplex
