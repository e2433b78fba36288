#include "graph/ctcp.h"

#include <algorithm>

#include "graph/builder.h"
#include "graph/kcore.h"
#include "util/bitset.h"

namespace kplex {
namespace {

// One edge-rule sweep over the current graph; returns the surviving
// edges and counts deletions. Triangle (common-neighbor) counts run
// against a bitmap of N(u) that lives across u's whole edge block:
// sparse endpoints scan their list with early exit at the threshold,
// dense endpoints materialize a second bitmap and count the
// intersection word by word with AndCount.
std::vector<std::pair<VertexId, VertexId>> EdgeSweep(const Graph& graph,
                                                     int64_t threshold,
                                                     uint64_t* pruned) {
  const std::size_t n = graph.NumVertices();
  DynamicBitset row_u(n), row_v(n);
  // Word-parallel pays once materializing + clearing N(v) costs less
  // than testing each neighbor: ~2 words of kernel work per 64 bits.
  const std::size_t dense_cutoff = 2 * ((n + 63) / 64);
  std::vector<std::pair<VertexId, VertexId>> kept;
  kept.reserve(graph.NumEdges());
  for (VertexId u = 0; u < n; ++u) {
    auto nu = graph.Neighbors(u);
    bool u_marked = false;
    for (VertexId v : nu) {
      if (v <= u) continue;
      if (!u_marked) {
        for (VertexId w : nu) row_u.Set(w);
        u_marked = true;
      }
      auto nv = graph.Neighbors(v);
      int64_t common = 0;
      if (nv.size() >= dense_cutoff) {
        for (VertexId w : nv) row_v.Set(w);
        common = static_cast<int64_t>(row_u.AndCount(row_v));
        for (VertexId w : nv) row_v.Reset(w);
      } else {
        for (VertexId w : nv) {
          if (row_u.Test(w) && ++common >= threshold) break;
        }
      }
      if (common >= threshold) {
        kept.push_back({u, v});
      } else {
        ++*pruned;
      }
    }
    if (u_marked) {
      for (VertexId w : nu) row_u.Reset(w);
    }
  }
  return kept;
}

}  // namespace

CtcpResult CtcpReduce(const Graph& graph, uint32_t k, uint32_t q) {
  CtcpResult result;
  const uint32_t core_level = q >= k ? q - k : 0;
  const int64_t edge_threshold =
      static_cast<int64_t>(q) - 2 * static_cast<int64_t>(k);

  // Identity mapping to start; composed across rounds.
  Graph current = graph;
  std::vector<VertexId> to_original(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) to_original[v] = v;

  while (true) {
    ++result.rounds;
    bool changed = false;

    // Vertex rule: (q - k)-core.
    CoreReduction core = ReduceToCore(current, core_level);
    if (core.graph.NumVertices() != current.NumVertices()) changed = true;
    std::vector<VertexId> composed(core.to_original.size());
    for (std::size_t i = 0; i < core.to_original.size(); ++i) {
      composed[i] = to_original[core.to_original[i]];
    }
    current = std::move(core.graph);
    to_original = std::move(composed);

    // Edge rule (only binding when q > 2k).
    if (edge_threshold > 0) {
      const uint64_t before = result.edges_pruned;
      auto kept = EdgeSweep(current, edge_threshold, &result.edges_pruned);
      if (result.edges_pruned != before) {
        changed = true;
        current = GraphBuilder::FromEdges(current.NumVertices(), kept);
      }
    }

    if (!changed || current.NumVertices() == 0) break;
  }

  result.graph = std::move(current);
  result.to_original = std::move(to_original);
  return result;
}

}  // namespace kplex
