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
//
// Every order also induces an orientation: each edge points from its
// earlier end to its later one. A vertex's out-list (its later
// neighbours) is never longer than the degeneracy under eta, which is
// what lets a seed be rejected by Corollary 5.2 from its N1 out-lists
// alone (core/seed_graph.cc).

#ifndef KPLEX_GRAPH_DEGENERACY_H_
#define KPLEX_GRAPH_DEGENERACY_H_

#include <cstdint>
#include <span>
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
  /// The orientation `rank` induces, as one CSR of m entries: the
  /// out-list of v is later_neighbors[later_offsets[v],
  /// later_offsets[v + 1]), the neighbours u with rank[u] > rank[v],
  /// ascending by id. Each edge sits in the out-list of its earlier end.
  std::vector<uint64_t> later_offsets;
  std::vector<VertexId> later_neighbors;

  /// The out-list of v.
  std::span<const VertexId> Later(VertexId v) const {
    return {later_neighbors.data() + later_offsets[v],
            later_neighbors.data() + later_offsets[v + 1]};
  }
};

/// Computes coreness values, the deterministic degeneracy ordering and
/// its orientation.
DegeneracyResult ComputeDegeneracy(const Graph& graph);

/// Fills result.later_offsets and result.later_neighbors from `graph`
/// and result.rank, in O(n + m). Every producer of a seed ordering calls
/// it once its ranks are final.
void OrientByRank(const Graph& graph, DegeneracyResult& result);

}  // namespace kplex

#endif  // KPLEX_GRAPH_DEGENERACY_H_
