// Instrumentation counters shared by all enumerator variants. They feed
// the ablation analyses and the engine's tests (e.g. asserting that
// enabling a pruning rule can only shrink the number of explored
// branches).

#ifndef KPLEX_CORE_COUNTERS_H_
#define KPLEX_CORE_COUNTERS_H_

#include <cstdint>

namespace kplex {

struct AlgoCounters {
  uint64_t seed_graphs = 0;        ///< seed subgraphs materialized
  uint64_t seed_vertices_pruned = 0;  ///< Corollary 5.2 removals in
                                      ///< built seed graphs
  uint64_t subtasks = 0;           ///< initial sub-tasks handed to Branch
  uint64_t subtasks_pruned_r1 = 0; ///< sub-tasks killed by Theorem 5.7 bound
  uint64_t branch_calls = 0;       ///< Branch() invocations
  uint64_t ub_prunes = 0;          ///< include-branches killed by Eq (3)
  uint64_t kplex_shortcuts = 0;    ///< P∪C-is-a-k-plex early terminations
  uint64_t outputs = 0;            ///< maximal k-plexes emitted
  uint64_t pair_edges_pruned = 0;  ///< false entries in the pair matrix T
  uint64_t timeout_spawns = 0;     ///< tasks re-packaged by the timeout rule
  uint64_t core_reductions_precomputed = 0;  ///< (q-k)-cores taken from
                                             ///< snapshot sections (no peel)
  uint64_t orderings_precomputed = 0;  ///< seed orderings restricted from
                                       ///< a stored degeneracy order

  bool operator==(const AlgoCounters&) const = default;

  void MergeFrom(const AlgoCounters& o) {
    seed_graphs += o.seed_graphs;
    seed_vertices_pruned += o.seed_vertices_pruned;
    subtasks += o.subtasks;
    subtasks_pruned_r1 += o.subtasks_pruned_r1;
    branch_calls += o.branch_calls;
    ub_prunes += o.ub_prunes;
    kplex_shortcuts += o.kplex_shortcuts;
    outputs += o.outputs;
    pair_edges_pruned += o.pair_edges_pruned;
    timeout_spawns += o.timeout_spawns;
    core_reductions_precomputed += o.core_reductions_precomputed;
    orderings_precomputed += o.orderings_precomputed;
  }
};

}  // namespace kplex

#endif  // KPLEX_CORE_COUNTERS_H_
