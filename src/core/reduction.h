// Shared front half of both enumerator drivers: shrink the input graph
// to the (q-k)-core (Theorem 3.5) and build the seed ordering of the
// survivors. When EnumOptions carries precomputed snapshot sections
// (graph/precompute.h), both steps are served from them instead of
// recomputed, and the counters record it so callers can prove the skip
// happened.

#ifndef KPLEX_CORE_REDUCTION_H_
#define KPLEX_CORE_REDUCTION_H_

#include "core/counters.h"
#include "core/options.h"
#include "graph/degeneracy.h"
#include "graph/kcore.h"

namespace kplex {

struct PreparedReduction {
  /// Compacted survivor graph + new-id -> original-id map.
  CoreReduction core;
  /// Seed ordering of core.graph (order/rank over compacted ids) and
  /// its orientation. Unpopulated when core.graph is empty (nothing to
  /// enumerate).
  DegeneracyResult ordering;
  /// True when the respective step came from options.precompute.
  bool core_precomputed = false;
  bool order_precomputed = false;
};

/// Runs the reduction + ordering stage. Increments
/// counters.core_reductions_precomputed / orderings_precomputed when a
/// precomputed section was consumed. Inconsistent precompute (wrong
/// vertex count) is ignored, never trusted.
PreparedReduction PrepareReduction(const Graph& graph,
                                   const EnumOptions& options,
                                   AlgoCounters& counters);

}  // namespace kplex

#endif  // KPLEX_CORE_REDUCTION_H_
