// Seed subgraph construction (Section 4, Eq (1) + Section 5 seed-level
// pruning). For a seed vertex v_i in degeneracy order, the SeedGraph
// materializes:
//
//   local id 0                    : the seed v_i
//   local ids [1, 1+num_n1)       : N_{G_i}(v_i)   (later neighbors)
//   local ids [1+num_n1, num_vi)  : N^2_{G_i}(v_i) (later two-hop
//                                   vertices, reachable via N1)
//   local ids [num_vi, universe)  : the exclusive fringe V'_i (earlier
//                                   vertices within two hops, kept
//                                   only for maximality checks)
//
// in one dense adjacency BitMatrix (a row per local vertex over the
// whole universe; fringe-fringe edges are irrelevant and omitted). Each
// part is a contiguous id range, so the three counts are the whole
// layout: readers build a part's mask with SetRange or test membership
// with an index compare. Vertices that cannot participate in any k-plex
// of size >= q together with v_i are pruned: Corollary 5.2 iterated to
// a fixpoint on the V_i side, the matching Theorem 5.1 common-neighbor
// conditions on the fringe side.
//
// The N1 half of Corollary 5.2 reads only the edges inside N1, and each
// of them lies in the out-list (DegeneracyResult::Later) of its earlier
// end. So N1 is peeled first over its members' out-lists, and a seed
// whose N1 cannot keep q - k members is rejected there, at
// ~O(|N1| + Σ out-degree over N1). Only a surviving N1 is walked two
// hops over full adjacency lists to find N2 and the fringe.

#ifndef KPLEX_CORE_SEED_GRAPH_H_
#define KPLEX_CORE_SEED_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/counters.h"
#include "core/options.h"
#include "core/pair_matrix.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"
#include "util/bit_matrix.h"

namespace kplex {

struct SeedGraph {
  /// Local id of the seed vertex; always 0.
  static constexpr uint32_t kSeed = 0;

  /// |V_i| after pruning. Local ids [0, num_vi) form V_i.
  uint32_t num_vi = 0;
  /// Number of surviving N_{G_i}(v_i) vertices; ids [1, 1+num_n1).
  uint32_t num_n1 = 0;
  /// Total local universe size (= num_vi + fringe size).
  uint32_t universe = 0;

  /// Dense symmetric adjacency, universe x universe: Row(v) holds v's
  /// local neighbours.
  BitMatrix adj;
  /// to_global[local] = vertex id in the *original* input graph.
  std::vector<VertexId> to_global;
  /// deg_vi[v] = degree of v within V_i (the d_{G_i} of Theorem 5.3).
  /// Defined for local ids < num_vi.
  std::vector<uint32_t> deg_vi;

  /// Pair-pruning matrix T (present iff R2 enabled).
  std::optional<PairPruneMatrix> pairs;
};

/// Builds the seed graph of `seed_vertex`. `graph` is the
/// (q-k)-core-reduced graph; `to_original` maps its ids back to the
/// input graph (may be empty when graph ids are original). `degeneracy`
/// is a seed ordering of `graph` with its orientation, as every producer
/// of one fills it (ComputeDegeneracy, MakeSeedOrdering,
/// PrepareReduction). Returns nullopt when the seed provably cannot
/// carry any k-plex of size >= q (e.g. |V_i| < q or deg(v_i)+k < q after
/// pruning). `counters` gain seed_graphs, pair_edges_pruned and
/// seed_vertices_pruned for built seed graphs only: a rejected seed
/// counts nothing, and N2 prunes count over what the surviving N1
/// reaches.
std::optional<SeedGraph> BuildSeedGraph(
    const Graph& graph, const std::vector<VertexId>& to_original,
    const DegeneracyResult& degeneracy, uint32_t seed_vertex,
    const EnumOptions& options, AlgoCounters* counters);

}  // namespace kplex

#endif  // KPLEX_CORE_SEED_GRAPH_H_
