// Mutable state of one branch-and-bound node: the triple <P, C, X> plus
// the incrementally maintained |N(v) ∩ P| counts. States are copied when
// a branch forks (the include side) and when the parallel timeout rule
// re-packages a pending recursive call as a standalone task.
//
// The branch body reads the sets as raw 64-bit words at a width W fixed
// per instantiation (core/branch.h): W = 1 or 2 words, known at compile
// time, or kAnyWidth, the seed graph's own word count read at run time.
// The word-level helpers below take that W; with the default kAnyWidth
// they serve the sub-task layer and the tests, which never specialize.

#ifndef KPLEX_CORE_TASK_STATE_H_
#define KPLEX_CORE_TASK_STATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seed_graph.h"
#include "util/bitset.h"

namespace kplex {

/// The width of a branch body that reads the word count at run time.
inline constexpr std::size_t kAnyWidth = 0;

/// Words of P ∪ C, which lies in V_i = [0, num_vi): W at a fixed width,
/// where counting all W words costs nothing more, and the words that
/// cover V_i at any width, where the fringe can hold most words.
template <std::size_t W>
std::size_t PcWords(const SeedGraph& sg) {
  return W == kAnyWidth ? (sg.num_vi + 63) / 64 : W;
}

struct TaskState {
  DynamicBitset p;  ///< current k-plex (subset of V_i)
  DynamicBitset c;  ///< candidate set (subset of V_i)
  DynamicBitset x;  ///< exclusive set (V_i and fringe vertices)
  /// dp[v] = |N(v) ∩ P| for every local vertex v.
  std::vector<uint16_t> dp;
  uint32_t p_size = 0;

  /// Creates the empty state sized for `sg`.
  static TaskState MakeEmpty(const SeedGraph& sg) {
    TaskState st;
    st.p.ResizeClear(sg.universe);
    st.c.ResizeClear(sg.universe);
    st.x.ResizeClear(sg.universe);
    st.dp.assign(sg.universe, 0);
    return st;
  }

  /// Words of P, C, X and of every adjacency row read with them: W, or
  /// the state's own word count for kAnyWidth.
  template <std::size_t W>
  std::size_t Words() const {
    return W == kAnyWidth ? p.num_words() : W;
  }

  /// Moves v (a V_i vertex not yet in P) into P, updating counts.
  template <std::size_t W = kAnyWidth>
  void AddToP(const SeedGraph& sg, uint32_t v) {
    p.Set(v);
    ++p_size;
    kernels::ForEachBit(sg.adj.Row(v).words, Words<W>(),
                        [&](std::size_t u) { ++dp[u]; });
  }

  /// Non-neighbors of v inside P, counting v itself when v ∈ P
  /// (the paper's d-bar); same expression for members and outsiders.
  uint32_t NonNeighborsInP(uint32_t v) const { return p_size - dp[v]; }

  /// sup_P(v) = k - d̄_P(v) (Section 5, "support number").
  int32_t Support(uint32_t v, uint32_t k) const {
    return static_cast<int32_t>(k) - static_cast<int32_t>(NonNeighborsInP(v));
  }

  /// Writes into `saturated` (Words<W>() words) the P-members with
  /// d̄_P = k.
  template <std::size_t W = kAnyWidth>
  void Saturated(uint32_t k, uint64_t* saturated) const {
    const std::size_t n = Words<W>();
    for (std::size_t i = 0; i < n; ++i) saturated[i] = 0;
    if (p_size < k) return;  // d̄_P <= |P| < k: nobody saturated
    kernels::ForEachBit(p.data(), n, [&](std::size_t u) {
      saturated[u >> 6] |= uint64_t{p_size - dp[u] == k} << (u & 63);
    });
  }

  /// True iff P ∪ {v} is still a k-plex, given that P itself is one.
  /// `saturated` must hold exactly the P-members with d̄_P = k.
  template <std::size_t W = kAnyWidth>
  bool CanAdd(const SeedGraph& sg, const uint64_t* saturated, uint32_t v,
              uint32_t k) const {
    if (dp[v] + k < p_size + 1) return false;  // v's own budget
    return kernels::IsSubset(saturated, sg.adj.Row(v).words, Words<W>());
  }
};

}  // namespace kplex

#endif  // KPLEX_CORE_TASK_STATE_H_
