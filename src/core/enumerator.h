// Sequential mining (Algorithm 2): (q-k)-core reduction, degeneracy
// ordering, per-seed subgraph construction, sub-task enumeration and
// branch-and-bound. This is the public entry point of the library for
// single-threaded mining; src/parallel provides the multi-threaded one.
// Both are the stage runner of core/stage_runner.h, with one worker or
// with M, and report the same EnumResult.

#ifndef KPLEX_CORE_ENUMERATOR_H_
#define KPLEX_CORE_ENUMERATOR_H_

#include <cstdint>

#include "core/counters.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

struct EnumResult {
  /// Number of maximal k-plexes emitted.
  uint64_t num_plexes = 0;
  /// Seed vertices of the *reduced* graph — the size of the canonical
  /// seed space, independent of any options.seed_range restriction. It
  /// equals SeedPlan::total_seeds (core/seed_plan.h), whose ranges a
  /// sharding coordinator plans to cover [0, total_seeds) exactly.
  uint64_t total_seeds = 0;
  /// Wall time of the whole run (seconds).
  double seconds = 0.0;
  /// True when the run stopped early due to options.time_limit_seconds.
  bool timed_out = false;
  /// True when the run stopped cleanly after options.max_results hits.
  /// The workers claim emits from one count, so the run emits exactly
  /// max_results plexes at every worker count.
  bool stopped_early = false;
  /// True when the run was aborted through options.cancel.
  bool cancelled = false;
  /// Resume cursor, set by a one-worker run that stopped at
  /// options.max_results: `resume_seed` is the canonical seed index
  /// that was mid-enumeration and `resume_ordinal` the number of plexes
  /// already emitted from that seed. Re-running with seed_range.begin =
  /// resume_seed while dropping the first resume_ordinal emissions
  /// continues the enumeration exactly where it stopped (each seed
  /// re-enumerates deterministically from scratch). Several workers
  /// emit in no fixed order, so their runs set none.
  bool has_resume = false;
  uint32_t resume_seed = 0;
  uint64_t resume_ordinal = 0;
  /// True when the run stopped at a stage boundary because options.yield
  /// was set (a stage is one seed with one worker). A yielded run is a
  /// *complete* answer for the covered range below — the only early
  /// stop that is (cancel/timeout abandon mid-seed work).
  bool yielded = false;
  /// Half-open range of canonical seed indices this run fully
  /// enumerated: the clamped requested range, except covered_end drops
  /// to the yield boundary on a yielded run. Set at every worker count.
  /// Meaningless when the run was cancelled, timed out or stopped early.
  uint32_t covered_begin = 0;
  uint32_t covered_end = 0;
  AlgoCounters counters;
};

/// Validates `options` against Definition 3.4 (k >= 1, q >= 2k - 1) and
/// the seed range (begin <= end).
Status ValidateOptions(const EnumOptions& options);

/// Enumerates all maximal k-plexes of `graph` with at least q vertices,
/// emitting each exactly once (sorted original vertex ids) into `sink`.
StatusOr<EnumResult> EnumerateMaximalKPlexes(const Graph& graph,
                                             const EnumOptions& options,
                                             ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_CORE_ENUMERATOR_H_
