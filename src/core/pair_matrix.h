// Vertex-pair pruning matrix T (Theorems 5.13, 5.14, 5.15). For every
// pair (u, v) of V_i vertices, T records whether u and v may co-occur in
// a k-plex of size >= q grown from seed v_i. T is one num_vi x universe
// BitMatrix, so a build makes one allocation for it. Rows span the full
// local universe with all fringe bits set, so AND-ing a candidate or
// exclusive set with Row(u) applies the "only prune vertices of V_i"
// rule for free.
//
// The thresholds implemented are the ones *derived in the appendix
// proofs* (A.8-A.10); for the adjacent case of Theorem 5.14 the main-text
// statement is weaker than its proof, and we use the proof's (tighter,
// still sound) value q - 2k - max{k-2, 0}. Soundness is property-tested
// against exhaustive enumeration in tests/pair_matrix_test.cc.

#ifndef KPLEX_CORE_PAIR_MATRIX_H_
#define KPLEX_CORE_PAIR_MATRIX_H_

#include <cstdint>

#include "util/bit_matrix.h"

namespace kplex {

struct SeedGraph;  // seed_graph.h

class PairPruneMatrix {
 public:
  PairPruneMatrix() = default;

  /// Row(u) has bit v set iff the pair (u, v) may co-occur. Defined for
  /// local ids u in [0, num_vi); Row(0) (the seed) is all-true.
  BitSpan Row(uint32_t u) const { return rows_.Row(u); }

  uint64_t num_pruned_pairs() const { return num_pruned_pairs_; }

  /// Threshold helpers exposed for tests: minimum number of common
  /// neighbors in C_S required for the pair to survive, by membership
  /// category. Values <= 0 mean "never pruned".
  static int64_t ThresholdN2N2(uint32_t k, uint32_t q, bool adjacent);
  static int64_t ThresholdN2N1(uint32_t k, uint32_t q, bool adjacent);
  static int64_t ThresholdN1N1(uint32_t k, uint32_t q, bool adjacent);

 private:
  friend PairPruneMatrix BuildPairMatrix(const SeedGraph& sg, uint32_t k,
                                         uint32_t q);

  BitMatrix rows_;
  uint64_t num_pruned_pairs_ = 0;
};

/// Builds T for the (already pruned) seed graph.
PairPruneMatrix BuildPairMatrix(const SeedGraph& sg, uint32_t k, uint32_t q);

}  // namespace kplex

#endif  // KPLEX_CORE_PAIR_MATRIX_H_
