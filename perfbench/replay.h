// Traced replay of the sequential driver (Algorithm 2), timed from
// outside the engine: it calls the same public layer functions in the
// same order as EnumerateMaximalKPlexes and records a span around each
// call — PrepareReduction, BuildSeedGraph per seed, EnumerateSubtasks
// per built seed with BranchEngine::Run inside its consumer, and
// ResultSink::Emit through a timing wrapper around HashingSink.
//
// Self times follow from the nesting: sub-task self time is the
// EnumerateSubtasks span minus the Run spans inside it, and branch self
// time is the Run spans minus the Emit spans inside them.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "bench.h"
#include "core/counters.h"
#include "core/options.h"
#include "graph/graph.h"

namespace perfbench {

struct LayerSpans {
  Answer answer;
  kplex::AlgoCounters counters;
  double total_s = 0;
  double reduction_s = 0;
  double seed_graph_s = 0;
  double subtask_s = 0;  ///< self time
  double branch_s = 0;   ///< self time
  double sink_s = 0;
  uint64_t sink_emits = 0;
  uint64_t graph_vertices = 0;
  uint64_t core_vertices = 0;
  uint64_t seeds = 0;        ///< BuildSeedGraph calls
  uint64_t seeds_built = 0;  ///< calls that returned a seed graph
  std::vector<double> seed_graph_us;  ///< one span per BuildSeedGraph
  std::vector<double> seed_cost_us;   ///< build + sub-tasks + branch, per seed

  /// Folds another replay in (sums, concatenated samples, merged
  /// counters; the answer is left alone).
  void Add(const LayerSpans& other);
};

/// Replays one sequential enumeration of `graph` under `options`.
LayerSpans TracedReplay(const kplex::Graph& graph,
                        const kplex::EnumOptions& options);

/// True iff every AlgoCounters field matches.
bool SameCounters(const kplex::AlgoCounters& a, const kplex::AlgoCounters& b);

/// Writes the replay's raw layer values under "replay", with the
/// untraced time of the same enumerations for trace.overhead.
void WriteReplay(Json& json, const LayerSpans& spans, double untraced_s);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
