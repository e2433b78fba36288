#include "coord/planner.h"

#include <algorithm>

#include "core/seed_plan.h"

namespace kplex {

std::vector<uint64_t> EstimateSeedCosts(const std::vector<uint32_t>& degrees,
                                        const std::vector<uint32_t>& coreness) {
  const std::size_t n = std::min(degrees.size(), coreness.size());
  std::vector<uint64_t> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    costs[i] = SeedPlanCost(degrees[i], coreness[i]);
  }
  return costs;
}

std::vector<CoordChunk> PlanCostChunks(const std::vector<uint64_t>& costs,
                                       uint32_t target_chunks) {
  std::vector<CoordChunk> chunks;
  const uint32_t n = static_cast<uint32_t>(costs.size());
  if (n == 0) return chunks;
  if (target_chunks < 1) target_chunks = 1;

  uint64_t total = 0;
  for (uint64_t cost : costs) total += cost;
  // Every seed costs at least 1 (SeedPlanCost's +1 terms), but guard
  // anyway: a zero total degenerates to one chunk holding everything.
  const uint64_t share = std::max<uint64_t>(1, total / target_chunks);

  CoordChunk current;
  current.begin = 0;
  for (uint32_t i = 0; i < n; ++i) {
    current.est_cost += costs[i];
    current.end = i + 1;
    // Close the chunk once it holds its share — unless it is the last
    // allowed chunk, which must absorb the tail to keep the partition
    // exact.
    if (current.est_cost >= share &&
        chunks.size() + 1 < target_chunks && current.end < n) {
      chunks.push_back(current);
      current = CoordChunk();
      current.begin = i + 1;
    }
  }
  if (current.end > current.begin) chunks.push_back(current);
  return chunks;
}

}  // namespace kplex
