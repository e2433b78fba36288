// Shared machinery for the bench binaries: the registry of named
// algorithm variants (matching the labels of the paper's tables), timed
// execution, and fork-isolated peak-RSS measurement for the memory table.

#ifndef KPLEX_BENCH_COMMON_HARNESS_H_
#define KPLEX_BENCH_COMMON_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/graph.h"

namespace kplex {

/// A named algorithm: given a graph and a sink, run it to completion.
using AlgoFn =
    std::function<StatusOr<EnumResult>(const Graph&, ResultSink&)>;

/// Returns the sequential variant named as in the paper's tables:
/// "FP", "ListPlex", "Ours_P", "Ours", "Basic", "Basic+R1", "Basic+R2",
/// "Ours\\ub", "Ours\\ub+fp". Aborts on unknown names.
AlgoFn MakeSequentialAlgo(const std::string& name, uint32_t k, uint32_t q);

/// Parallel variants of Table 4, each with `threads` workers: "FP-par"
/// runs FP's one task per seed, "ListPlex-par" ListPlex's sub-tasks
/// without the straggler timeout, and "Ours-par" this paper's sub-tasks
/// with timeout tau_ms (the only variant that reads it).
AlgoFn MakeParallelAlgo(const std::string& name, uint32_t k, uint32_t q,
                        uint32_t threads, double tau_ms);

struct RunOutcome {
  bool ok = false;
  std::string error;
  uint64_t num_plexes = 0;
  double seconds = 0.0;
  uint64_t fingerprint = 0;  ///< order-independent result-set hash
  uint64_t branch_calls = 0;  ///< EnumResult::counters.branch_calls
};

/// Runs `algo` with a HashingSink and reports timing, fingerprint and
/// branch calls.
RunOutcome TimeAlgo(const Graph& graph, const AlgoFn& algo);

/// Forks a child, runs `fn` there, and returns the child's peak RSS in
/// KiB (or a negative value on failure). Isolation ensures one
/// algorithm's allocations don't inflate another's measurement.
int64_t MeasurePeakRssKib(const std::function<void()>& fn);

}  // namespace kplex

#endif  // KPLEX_BENCH_COMMON_HARNESS_H_
