#include "parallel/parallel_enumerator.h"

#include <algorithm>
#include <thread>

#include "core/stage_runner.h"

namespace kplex {

StatusOr<EnumResult> ParallelEnumerateMaximalKPlexes(
    const Graph& graph, const EnumOptions& options,
    const ParallelOptions& parallel_options, ResultSink& sink) {
  const uint32_t workers =
      parallel_options.num_threads > 0
          ? parallel_options.num_threads
          : std::max(1u, std::thread::hardware_concurrency());
  return RunSeedStages(graph, options, workers, parallel_options.timeout_ms,
                       EnumerateSubtasks, sink);
}

}  // namespace kplex
