#include "baselines/d2k.h"

#include "baselines/fp.h"
#include "core/stage_runner.h"

namespace kplex {

StatusOr<EnumResult> D2kEnumerate(const Graph& graph, uint32_t k, uint32_t q,
                                  ResultSink& sink) {
  // FP's configuration (simple pivoting, the diameter-2 seed reduction,
  // no vertex-pair rules) without its bound: D2K pre-dates bounding.
  // Like FP, it runs one undecomposed task per seed over the whole
  // two-hop candidate set.
  EnumOptions options = FpOptions(k, q);
  options.upper_bound = UpperBoundMode::kNone;
  return RunSeedStages(graph, options, /*num_workers=*/1, /*timeout_ms=*/0,
                       EnumerateWholeSeed, sink);
}

}  // namespace kplex
