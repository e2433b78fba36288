// Seed-vertex ordering construction. The engine's correctness only needs
// *some* total order (every maximal k-plex is mined from its minimum-
// order member, whose two-hop seed subgraph contains the rest); the
// degeneracy order is what gives the paper's size bounds. This helper
// materializes the order/rank arrays for each supported ordering.

#ifndef KPLEX_CORE_ORDERING_H_
#define KPLEX_CORE_ORDERING_H_

#include "core/options.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"

namespace kplex {

/// Returns order/rank and the orientation they induce (and, for
/// kDegeneracy, coreness/degeneracy) for the requested seed ordering.
DegeneracyResult MakeSeedOrdering(const Graph& graph,
                                  VertexOrdering ordering);

}  // namespace kplex

#endif  // KPLEX_CORE_ORDERING_H_
