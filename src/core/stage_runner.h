// The one per-seed loop of every enumerator. Algorithm 2 and its
// Section 6 parallelization are the same stage runner, with one worker
// or with M. The runner walks the clamped options.seed_range of the
// canonical seed order in stages. In each stage a worker builds the
// seed graphs of its seeds, cuts each into tasks with the caller's seed
// step and runs them on its one BranchEngine, which it keeps for the
// whole run and re-targets at each task's seed graph.
//
// One worker runs on the calling thread. A stage is one seed, each task
// runs the moment the seed step makes it, and no task timeout is set:
// this is Algorithm 2, with a deterministic emission order and resume
// cursor. M workers keep Figure 6's schedule. In stage j, worker t cuts
// seeds jM + t (a batch of them on large graphs) into its own queue. It
// pushes and pops at the queue's front and, when idle, steals from the
// back of the others'. A task running past tau re-packages its pending
// recursive calls as queue tasks. Between stages one thread reports
// progress and decides whether the next stage runs, so on a yield every
// worker stops at the same stage boundary.

#ifndef KPLEX_CORE_STAGE_RUNNER_H_
#define KPLEX_CORE_STAGE_RUNNER_H_

#include <cstdint>

#include "core/enumerator.h"
#include "core/subtask.h"

namespace kplex {

/// Cuts one seed graph into branch-and-bound tasks: EnumerateSubtasks
/// (Algorithm 2) or EnumerateWholeSeed (the FP baseline).
using SeedStep = void (*)(const SeedGraph& sg, const EnumOptions& options,
                          AlgoCounters& counters,
                          const TaskConsumer& consume);

/// Validates `options`, reduces and orders `graph`, then runs the seed
/// stages with `num_workers` workers (0 counts as 1). `timeout_ms` is the
/// straggler timeout tau; it applies only with more than one worker, and
/// <= 0 disables it. With more than one worker the sink must be
/// thread-safe.
StatusOr<EnumResult> RunSeedStages(const Graph& graph,
                                   const EnumOptions& options,
                                   uint32_t num_workers, double timeout_ms,
                                   SeedStep seed_step, ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_CORE_STAGE_RUNNER_H_
