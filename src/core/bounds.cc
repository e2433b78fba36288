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

uint32_t UbDegree(const SeedGraph& sg, const TaskState& state, uint32_t pivot,
                  uint32_t k) {
  uint32_t min_deg = sg.deg_vi[pivot];
  state.p.ForEach([&](std::size_t u) {
    min_deg = std::min(min_deg, sg.deg_vi[u]);
  });
  return min_deg + k;
}

uint32_t UbSupport(const SeedGraph& sg, const TaskState& state,
                   uint32_t pivot, uint32_t k, BoundScratch& scratch) {
  auto& sup = scratch.support;
  sup.resize(sg.universe);
  state.p.ForEach([&](std::size_t u) {
    sup[u] = state.Support(static_cast<uint32_t>(u), k);
  });

  uint32_t ub = state.p_size +
                static_cast<uint32_t>(state.Support(pivot, k));
  // K: neighbors of the pivot inside C, id order.
  state.c.ForEachAnd(sg.adj.Row(pivot), [&](std::size_t w) {
    int32_t min_sup = INT32_MAX;
    uint32_t argmin = UINT32_MAX;
    state.p.ForEachAndNot(sg.adj.Row(static_cast<uint32_t>(w)),
                          [&](std::size_t u) {
                            if (sup[u] < min_sup) {
                              min_sup = sup[u];
                              argmin = static_cast<uint32_t>(u);
                            }
                          });
    if (argmin == UINT32_MAX) {
      ++ub;  // w constrains nobody in P
    } else if (min_sup > 0) {
      --sup[argmin];
      ++ub;
    }
  });
  return ub;
}

uint32_t UbSupportSorted(const SeedGraph& sg, const TaskState& state,
                         uint32_t pivot, uint32_t k, BoundScratch& scratch) {
  auto& sup = scratch.support;
  sup.resize(sg.universe);
  state.p.ForEach([&](std::size_t u) {
    sup[u] = state.Support(static_cast<uint32_t>(u), k);
  });

  auto& ws = scratch.sorted_ws;
  ws.clear();
  state.c.ForEachAnd(sg.adj.Row(pivot),
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
    int32_t min_sup = INT32_MAX;
    uint32_t argmin = UINT32_MAX;
    state.p.ForEachAndNot(sg.adj.Row(w), [&](std::size_t u) {
      if (sup[u] < min_sup) {
        min_sup = sup[u];
        argmin = static_cast<uint32_t>(u);
      }
    });
    if (argmin == UINT32_MAX) {
      ++ub;
    } else if (min_sup > 0) {
      --sup[argmin];
      ++ub;
    }
  }
  return ub;
}

uint32_t UbSubtask(const SeedGraph& sg, const TaskState& state, uint32_t k,
                   BoundScratch& scratch) {
  auto& sup = scratch.support;
  sup.resize(sg.universe);
  state.p.ForEach([&](std::size_t u) {
    sup[u] = state.Support(static_cast<uint32_t>(u), k);
  });
  // Theorem 5.7: v_p = v_i with sup forced to 0 — no candidate is a
  // non-neighbor of the seed, so P_m gains only |K| vertices beyond P_S.
  uint32_t k_size = 0;
  state.c.ForEach([&](std::size_t w) {
    int32_t min_sup = INT32_MAX;
    uint32_t argmin = UINT32_MAX;
    state.p.ForEachAndNot(sg.adj.Row(static_cast<uint32_t>(w)),
                          [&](std::size_t u) {
                            if (sup[u] < min_sup) {
                              min_sup = sup[u];
                              argmin = static_cast<uint32_t>(u);
                            }
                          });
    if (argmin == UINT32_MAX) {
      ++k_size;
    } else if (min_sup > 0) {
      --sup[argmin];
      ++k_size;
    }
  });
  const uint32_t ub_support = state.p_size + k_size;

  uint32_t min_deg = UINT32_MAX;
  state.p.ForEach([&](std::size_t u) {
    min_deg = std::min(min_deg, sg.deg_vi[u]);
  });
  const uint32_t ub_degree = min_deg + k;
  return std::min(ub_support, ub_degree);
}

}  // namespace kplex
