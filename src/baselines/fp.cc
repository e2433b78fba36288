#include "baselines/fp.h"

#include "core/stage_runner.h"

namespace kplex {

EnumOptions FpOptions(uint32_t k, uint32_t q) {
  EnumOptions options;
  options.k = k;
  options.q = q;
  options.branching = BranchingScheme::kRepickFromC;
  options.upper_bound = UpperBoundMode::kFpSorted;
  options.pivot_saturation_tiebreak = false;
  options.use_subtask_bound_r1 = false;  // no sub-tasks at all
  options.use_pair_pruning_r2 = false;
  return options;
}

StatusOr<EnumResult> FpEnumerate(const Graph& graph,
                                 const EnumOptions& options,
                                 ResultSink& sink) {
  return RunSeedStages(graph, options, /*num_workers=*/1, /*timeout_ms=*/0,
                       EnumerateWholeSeed, sink);
}

}  // namespace kplex
