// Seed-plan probe: the planning half of coordinated mining. A
// coordinator that wants cost-balanced chunks needs per-seed cost
// signals *without* enumerating anything. ComputeSeedPlan runs only the
// shared reduction front half (core/reduction.h — the (q-k)-core plus
// the canonical seed ordering, served from precomputed snapshot
// sections when available) and reports, for every seed index of the
// canonical order, two cheap structure signals:
//
//   - forward degree: the seed's neighbor count *later* in the
//     degeneracy order — an upper bound on its candidate pool, the
//     dominant per-seed cost driver;
//   - coreness: how deep the seed sits in the core decomposition —
//     dense-region seeds (the expensive ones) have high coreness.
//
// The planner combines them as cost = (fwd_degree+1) * (coreness+1),
// but the raw arrays are exposed so smarter estimators can evolve
// without a protocol change. total_seeds here is byte-identical to
// EnumResult::total_seeds for the same (graph, options) — the contract
// that lets planned chunk ranges partition the real seed space.

#ifndef KPLEX_CORE_SEED_PLAN_H_
#define KPLEX_CORE_SEED_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

struct SeedPlan {
  /// Seed count of the reduced graph — equals EnumResult::total_seeds.
  uint64_t total_seeds = 0;
  /// Degeneracy of the reduced graph (max coreness).
  uint32_t degeneracy = 0;
  /// degrees[i]: forward degree of the i-th seed of the canonical order
  /// (neighbors with a later position). Size total_seeds.
  std::vector<uint32_t> degrees;
  /// coreness[i]: coreness of the i-th seed. Size total_seeds.
  std::vector<uint32_t> coreness;
  /// True when the respective reduction step was served from
  /// precomputed snapshot sections instead of recomputed.
  bool core_precomputed = false;
  bool order_precomputed = false;
  double seconds = 0;
};

/// Runs the reduction + ordering stage only (no enumeration) and
/// extracts the per-seed planning signals. Honors the same options the
/// enumerators do (k, q, precompute, ordering), so the reported seed
/// order is exactly the one a mine over the same options iterates.
StatusOr<SeedPlan> ComputeSeedPlan(const Graph& graph,
                                   const EnumOptions& options);

/// The planner's default per-seed cost: (degrees[i]+1) * (coreness[i]+1).
uint64_t SeedPlanCost(uint32_t degree, uint32_t coreness);

}  // namespace kplex

#endif  // KPLEX_CORE_SEED_PLAN_H_
