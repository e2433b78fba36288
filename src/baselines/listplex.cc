#include "baselines/listplex.h"

namespace kplex {

EnumOptions ListPlexOptions(uint32_t k, uint32_t q) {
  EnumOptions options;
  options.k = k;
  options.q = q;
  options.branching = BranchingScheme::kFaplexenWhenPivotInP;
  options.upper_bound = UpperBoundMode::kNone;
  options.pivot_saturation_tiebreak = false;
  options.use_subtask_bound_r1 = false;
  options.use_pair_pruning_r2 = false;
  return options;
}

StatusOr<EnumResult> ListPlexEnumerate(const Graph& graph, uint32_t k,
                                       uint32_t q, ResultSink& sink) {
  return EnumerateMaximalKPlexes(graph, ListPlexOptions(k, q), sink);
}

}  // namespace kplex
