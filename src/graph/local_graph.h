// LocalGraph: dense adjacency-matrix representation of a small vertex
// universe (a seed subgraph plus its exclusive-set fringe). The matrix
// is a flat BitMatrix — one contiguous buffer, fixed word stride,
// 64-byte-aligned rows — so the branch-and-bound inner loops stream
// consecutive cache lines through the word loops of
// util/bitset_kernels.h instead of chasing one heap allocation per
// row. Rows are exposed as BitSpan views that compose directly with
// the DynamicBitset P/C/X sets.
//
// Seed subgraphs are dense (Section 4: "since G_i tends to be dense, it
// is efficient when G_i is represented by an adjacency matrix"), which is
// why this representation is used instead of CSR inside tasks.

#ifndef KPLEX_GRAPH_LOCAL_GRAPH_H_
#define KPLEX_GRAPH_LOCAL_GRAPH_H_

#include <cstdint>

#include "util/bit_matrix.h"

namespace kplex {

class LocalGraph {
 public:
  LocalGraph() = default;
  /// Creates an edgeless universe of `size` local vertices.
  explicit LocalGraph(uint32_t size) : matrix_(size, size) {}

  uint32_t size() const { return matrix_.rows(); }

  /// Adds the undirected edge (u, v); u != v. Adding it again is a no-op.
  void AddEdge(uint32_t u, uint32_t v) {
    matrix_.Set(u, v);
    matrix_.Set(v, u);
  }

  bool HasEdge(uint32_t u, uint32_t v) const { return matrix_.Test(u, v); }

  /// Adjacency row of v: a span over the flat matrix, fed straight into
  /// the word loops by callers.
  BitSpan Row(uint32_t v) const { return matrix_.Row(v); }

  /// popcount(Row(v) & mask): degree of v restricted to `mask`.
  uint32_t DegreeIn(uint32_t v, BitSpan mask) const {
    return static_cast<uint32_t>(Row(v).AndCount(mask));
  }

 private:
  BitMatrix matrix_;
};

}  // namespace kplex

#endif  // KPLEX_GRAPH_LOCAL_GRAPH_H_
