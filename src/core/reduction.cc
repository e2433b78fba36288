#include "core/reduction.h"

#include <algorithm>

#include "core/ordering.h"
#include "graph/precompute.h"

namespace kplex {
namespace {

// Restricts the stored full-graph peeling order to the survivors of
// `core`, a (q-k)-core. Coreness is non-decreasing along a degeneracy
// peel, so the survivors form a suffix of the stored order and the
// restriction *is* the degeneracy ordering of the induced subgraph
// (same by-id tie-breaks: compaction preserves id order). The
// orientation is rebuilt over the core graph: the stored sections hold
// none.
DegeneracyResult RestrictOrdering(const GraphPrecompute& pre,
                                  const CoreReduction& core,
                                  std::size_t original_n) {
  const std::size_t n = core.to_original.size();
  std::vector<VertexId> new_id(original_n, VertexId(-1));
  for (std::size_t i = 0; i < n; ++i) {
    new_id[core.to_original[i]] = static_cast<VertexId>(i);
  }

  DegeneracyResult result;
  result.order.reserve(n);
  result.rank.assign(n, 0);
  result.coreness.assign(n, 0);
  for (VertexId v : pre.order) {
    const VertexId mapped = new_id[v];
    if (mapped == VertexId(-1)) continue;
    result.rank[mapped] = static_cast<uint32_t>(result.order.size());
    result.order.push_back(mapped);
    // Within its own c-core a vertex keeps its full-graph coreness
    // (cores are nested), so the stored values carry over unchanged.
    result.coreness[mapped] = pre.coreness[v];
    result.degeneracy = std::max(result.degeneracy, pre.coreness[v]);
  }
  OrientByRank(core.graph, result);
  return result;
}

}  // namespace

PreparedReduction PrepareReduction(const Graph& graph,
                                   const EnumOptions& options,
                                   AlgoCounters& counters) {
  PreparedReduction out;
  const uint32_t core_level =
      options.q >= options.k ? options.q - options.k : 0;

  const GraphPrecompute* pre = options.precompute;
  const bool pre_coreness_usable =
      pre != nullptr && pre->has_coreness() &&
      pre->coreness.size() == graph.NumVertices();
  const bool pre_order_usable =
      pre != nullptr && pre->has_order() &&
      pre->order.size() == graph.NumVertices() && pre_coreness_usable;

  if (pre_coreness_usable) {
    const std::span<const uint64_t> mask = pre->MaskFor(core_level);
    if (!mask.empty() &&
        mask.size() == (graph.NumVertices() + 63) / 64) {
      out.core = ReduceToCoreFromMask(graph, mask);
    } else {
      out.core = ReduceToCoreFromCoreness(graph, core_level, pre->coreness);
    }
    out.core_precomputed = true;
    ++counters.core_reductions_precomputed;
  } else {
    out.core = ReduceToCore(graph, core_level);
  }

  if (out.core.graph.NumVertices() == 0) return out;

  if (options.ordering == VertexOrdering::kDegeneracy && pre_order_usable) {
    out.ordering = RestrictOrdering(*pre, out.core, graph.NumVertices());
    out.order_precomputed = true;
    ++counters.orderings_precomputed;
  } else {
    out.ordering = MakeSeedOrdering(out.core.graph, options.ordering);
  }
  return out;
}

}  // namespace kplex
