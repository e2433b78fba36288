// Chunk planner of the coordinator. Splitting the seed space into W
// equal index ranges is fine when per-seed work is uniform, terrible on
// skewed graphs where one hub seed costs 100x its neighbors. The
// planner instead cuts the space into *many more chunks than workers*
// (so the queue itself absorbs skew) and sizes each cut by estimated
// cost, not seed count, using the `plan` probe's per-seed signals
// (core/seed_plan.h: forward degree and coreness in the canonical
// order).
//
// Correctness does not depend on the estimates: any set of chunks that
// partitions [0, total_seeds) merges to the exact single-run
// fingerprint. The estimates only decide where the cuts land, i.e. how
// balanced the schedule starts out; work-stealing (coordinator.h)
// corrects whatever the estimates got wrong.

#ifndef KPLEX_COORD_PLANNER_H_
#define KPLEX_COORD_PLANNER_H_

#include <cstdint>
#include <vector>

namespace kplex {

/// One planned unit of work: a half-open range of canonical seed
/// indices plus the estimated cost it was sized by.
struct CoordChunk {
  uint32_t begin = 0;
  uint32_t end = 0;        ///< half-open: seeds [begin, end)
  uint64_t est_cost = 0;   ///< sum of per-seed estimates
};

/// Per-seed cost estimates from the plan probe's raw signals
/// (SeedPlanCost applied elementwise). The arrays must be the same
/// length; the result has that length.
std::vector<uint64_t> EstimateSeedCosts(const std::vector<uint32_t>& degrees,
                                        const std::vector<uint32_t>& coreness);

/// Cuts [0, costs.size()) into at most target_chunks contiguous,
/// non-empty ranges of roughly equal estimated cost (greedy: a chunk
/// closes once it holds ~total/target of the cost mass). Always returns
/// an exact partition; returns fewer chunks when the cost mass is too
/// concentrated (a single hub seed can exceed the per-chunk share on
/// its own — stealing handles that at run time). Empty costs => no
/// chunks.
std::vector<CoordChunk> PlanCostChunks(const std::vector<uint64_t>& costs,
                                       uint32_t target_chunks);

}  // namespace kplex

#endif  // KPLEX_COORD_PLANNER_H_
