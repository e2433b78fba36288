// Task-based parallel enumeration (Section 6): the stage runner of
// core/stage_runner.h with M workers, which describes the schedule:
// per-worker queues drained owner-first (cache locality on the shared
// seed subgraph) with stealing when idle (load balance), and a
// straggler timeout so that no single task can serialize a stage.

#ifndef KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_
#define KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_

#include <cstdint>

#include "core/enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

/// How many workers run the stages, and the straggler timeout. The
/// runner derives the seeds a worker expands per stage from the graph:
/// one with one worker, more on large graphs to amortize the barrier.
struct ParallelOptions {
  /// Worker threads (M). 0 means std::thread::hardware_concurrency().
  /// One worker is the sequential run, on the calling thread.
  uint32_t num_threads = 0;
  /// Straggler timeout tau_time in milliseconds; <= 0 disables the
  /// decomposition (tasks then run to completion as in plain ListPlex/FP
  /// style parallelization), and so does a single worker. The paper's
  /// default is 0.1 ms.
  double timeout_ms = 0.1;
};

/// Parallel counterpart of EnumerateMaximalKPlexes. The sink must be
/// thread-safe (all sinks in core/sink.h are).
StatusOr<EnumResult> ParallelEnumerateMaximalKPlexes(
    const Graph& graph, const EnumOptions& options,
    const ParallelOptions& parallel_options, ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_
