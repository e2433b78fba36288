// Core decomposition and degeneracy ordering by iterated minimum-degree
// peeling. Ties among minimum-degree vertices are broken by vertex id,
// which makes the ordering eta unique, exactly as specified in Section 3
// of the paper.
//
// The unpeeled vertices sit in an indexed 4-ary min-heap keyed by
// (current degree << 32) | id, so the root is the next vertex to peel.
// A position array turns each neighbour's degree decrement into a
// decrease-key in place: the heap holds at most n keys, none stale, and
// the peel costs O(n + m) heap steps of O(log n) each. Seed ranges,
// resume cursors, coordinator plans and stored snapshot order sections
// all name seeds by their place in eta, so the order must never change.

#ifndef KPLEX_GRAPH_DEGENERACY_H_
#define KPLEX_GRAPH_DEGENERACY_H_

#include <vector>

#include "graph/graph.h"

namespace kplex {

struct DegeneracyResult {
  /// Peeling order eta: order[i] is the i-th removed vertex.
  std::vector<VertexId> order;
  /// rank[v] = position of v in `order` (inverse permutation).
  std::vector<uint32_t> rank;
  /// coreness[v] = largest c such that v belongs to the c-core.
  std::vector<uint32_t> coreness;
  /// Graph degeneracy D = max coreness.
  uint32_t degeneracy = 0;
};

/// Computes coreness values and the deterministic degeneracy ordering.
DegeneracyResult ComputeDegeneracy(const Graph& graph);

}  // namespace kplex

#endif  // KPLEX_GRAPH_DEGENERACY_H_
