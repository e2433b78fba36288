// Named benchmark datasets. Each entry is either the bundled real graph
// (Zachary's karate club) or a deterministic synthetic stand-in for one
// of the paper's SNAP/LAW datasets: sized for a laptop, with the heavy
// tail, local clustering and small degeneracy of its class, which are
// the properties the algorithms exploit. Generation is seeded, so every
// run of every bench sees bit-identical graphs.

#ifndef KPLEX_BENCH_COMMON_DATASET_REGISTRY_H_
#define KPLEX_BENCH_COMMON_DATASET_REGISTRY_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

struct DatasetSpec {
  std::string name;        ///< registry key, e.g. "wiki-vote-syn"
  std::string stands_for;  ///< paper dataset it substitutes, e.g. "wiki-vote"
  std::string category;    ///< "real", "small", "medium", "large"
  std::string recipe;      ///< human-readable generator description
};

/// All registered datasets in presentation order.
const std::vector<DatasetSpec>& AllDatasets();

/// Datasets belonging to one category ("small", "medium", "large", "real").
std::vector<DatasetSpec> DatasetsByCategory(const std::string& category);

/// Loads/generates a dataset by registry key.
StatusOr<Graph> LoadDataset(const std::string& name);

}  // namespace kplex

#endif  // KPLEX_BENCH_COMMON_DATASET_REGISTRY_H_
