#include "core/enumerator.h"

#include <string>

#include "core/stage_runner.h"

namespace kplex {

Status ValidateOptions(const EnumOptions& options) {
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.q + 1 < 2 * options.k) {
    return Status::InvalidArgument(
        "q must be >= 2k - 1 (Definition 3.4 requires it; got k=" +
        std::to_string(options.k) + ", q=" + std::to_string(options.q) + ")");
  }
  if (options.seed_range.begin > options.seed_range.end) {
    return Status::InvalidArgument(
        "seed range begin must be <= end (got " +
        std::to_string(options.seed_range.begin) + ":" +
        std::to_string(options.seed_range.end) + ")");
  }
  return Status::Ok();
}

StatusOr<EnumResult> EnumerateMaximalKPlexes(const Graph& graph,
                                             const EnumOptions& options,
                                             ResultSink& sink) {
  return RunSeedStages(graph, options, /*num_workers=*/1, /*timeout_ms=*/0,
                       EnumerateSubtasks, sink);
}

}  // namespace kplex
