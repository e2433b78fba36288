#include "core/ordering.h"

#include <algorithm>
#include <numeric>

namespace kplex {

DegeneracyResult MakeSeedOrdering(const Graph& graph,
                                  VertexOrdering ordering) {
  if (ordering == VertexOrdering::kDegeneracy) {
    return ComputeDegeneracy(graph);
  }
  const std::size_t n = graph.NumVertices();
  DegeneracyResult result;
  result.order.resize(n);
  std::iota(result.order.begin(), result.order.end(), 0);
  if (ordering == VertexOrdering::kByDegreeAscending) {
    std::sort(result.order.begin(), result.order.end(),
              [&](VertexId a, VertexId b) {
                const std::size_t da = graph.Degree(a);
                const std::size_t db = graph.Degree(b);
                return da != db ? da < db : a < b;
              });
  }
  result.rank.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    result.rank[result.order[i]] = i;
  }
  // Coreness is only meaningful for the degeneracy ordering; leave it
  // zeroed (no engine component reads it for the alternatives).
  result.coreness.assign(n, 0);
  result.degeneracy = 0;
  OrientByRank(graph, result);
  return result;
}

}  // namespace kplex
