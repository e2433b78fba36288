// Sub-task generation (Algorithm 2, Line 7): set-enumeration of
// S ⊆ N²_{G_i}(v_i) with |S| <= k-1. Each node of the enumeration tree
// yields one sub-task <P_S = {v_i} ∪ S, C_S, X_S>; with R2 enabled the
// extension candidates and C_S are filtered through the pair matrix
// (Theorems 5.13 / 5.14), and with R1 enabled sub-tasks whose
// Theorem 5.7 + 5.3 bound falls below q are dropped before dispatch.

#ifndef KPLEX_CORE_SUBTASK_H_
#define KPLEX_CORE_SUBTASK_H_

#include <functional>

#include "core/counters.h"
#include "core/options.h"
#include "core/seed_graph.h"
#include "core/task_state.h"

namespace kplex {

/// Receives each surviving sub-task, ready for BranchEngine::Run.
using TaskConsumer = std::function<void(TaskState&&)>;

/// Enumerates all sub-tasks of the seed graph and hands them to
/// `consume` (in deterministic set-enumeration order).
void EnumerateSubtasks(const SeedGraph& sg, const EnumOptions& options,
                       AlgoCounters& counters, const TaskConsumer& consume);

/// The FP baseline's undecomposed step: hands `consume` one task for
/// the whole seed graph, P = {v_i}, C = N1 ∪ N2, X = the fringe. It
/// counts no sub-task.
void EnumerateWholeSeed(const SeedGraph& sg, const EnumOptions& options,
                        AlgoCounters& counters, const TaskConsumer& consume);

}  // namespace kplex

#endif  // KPLEX_CORE_SUBTASK_H_
