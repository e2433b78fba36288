// FP baseline (Dai et al., CIKM 2022), re-implemented from the EDBT
// paper's characterization: FP processes every seed vertex's *entire*
// two-hop candidate set in one branch-and-bound task (no S ⊆ N² sub-task
// decomposition — its complexity is O(n^2 γ_k^n) versus the partitioned
// O(n r1^k r2 γ_k^D)), prunes branches with an upper bound whose
// computation requires sorting the candidate set in every recursion, and
// uses no vertex-pair pruning.
//
// FP's exact bound (Lemma 5 of [16]) is not available offline; we
// substitute the admissible support bound of Theorem 5.5 evaluated over
// sorted candidates, which has the same asymptotic per-call cost
// (O(|C| log |C|)) and comparable strength.

#ifndef KPLEX_BASELINES_FP_H_
#define KPLEX_BASELINES_FP_H_

#include "core/enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

/// The engine configuration that reproduces FP's search behaviour.
EnumOptions FpOptions(uint32_t k, uint32_t q);

/// Enumerates all maximal k-plexes with >= q vertices, FP-style: one
/// task per seed of the canonical seed order. `options` is FpOptions
/// plus any run limits (max_results, time limit, cancel, seed range);
/// the emission order is fixed, so a resume cursor is exact.
StatusOr<EnumResult> FpEnumerate(const Graph& graph,
                                 const EnumOptions& options,
                                 ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_BASELINES_FP_H_
