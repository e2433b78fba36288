// Upper bounds on the maximum k-plex reachable from the current state
// (Section 5). All bounds are *admissible*: they never under-estimate
// the true maximum, so pruning a branch whose bound is < q is sound.
// Admissibility is property-tested against exhaustive search.
//
// The Eq (3) bounds the branch body computes per call are written once,
// over raw words at its width W (core/task_state.h); bounds.cc
// instantiates them for W = 1, 2 and kAnyWidth, the default, which the
// tests and benches call. The sub-task bound runs once per sub-task and
// reads any width.

#ifndef KPLEX_CORE_BOUNDS_H_
#define KPLEX_CORE_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seed_graph.h"
#include "core/task_state.h"

namespace kplex {

/// Scratch space reused across bound computations of one engine (the
/// recursion never interleaves two computations).
struct BoundScratch {
  std::vector<int32_t> support;       // sup_P values indexed by local id
  std::vector<uint32_t> sorted_ws;    // candidate ordering for the FP bound
};

/// Theorem 5.3: |P_m| <= min_{u in P ∪ {pivot}} deg_{G_i}(u) + k.
/// Valid for any k-plex of this task that contains P and `pivot`.
template <std::size_t W = kAnyWidth>
uint32_t UbDegree(const SeedGraph& sg, const TaskState& state, uint32_t pivot,
                  uint32_t k);

/// Theorem 5.5 / Algorithm 4: |P_m| <= |P| + sup_P(pivot) + |K| for the
/// branch that adds `pivot` (a candidate in C).
template <std::size_t W = kAnyWidth>
uint32_t UbSupport(const SeedGraph& sg, const TaskState& state,
                   uint32_t pivot, uint32_t k, BoundScratch& scratch);

/// FP-style variant of the support bound: identical admissible K
/// computation, but the candidates are visited in sorted order (fewest
/// non-neighbors in P first), costing an O(|C| log |C|) sort per call —
/// the cost profile the paper attributes to FP's bound (Section 7,
/// Table 5 discussion).
template <std::size_t W = kAnyWidth>
uint32_t UbSupportSorted(const SeedGraph& sg, const TaskState& state,
                         uint32_t pivot, uint32_t k, BoundScratch& scratch);

/// Theorem 5.7 (+ 5.3): upper bound for an initial sub-task
/// P_S = {v_i} ∪ S with candidate set C ⊆ N_{G_i}(v_i):
///   min( |P_S| + |K(v_i)| , min_{v in P_S} deg_{G_i}(v) + k ).
uint32_t UbSubtask(const SeedGraph& sg, const TaskState& state, uint32_t k,
                   BoundScratch& scratch);

}  // namespace kplex

#endif  // KPLEX_CORE_BOUNDS_H_
