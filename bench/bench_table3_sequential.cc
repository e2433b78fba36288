// Reproduces Table 3 of the paper: sequential running time of FP,
// ListPlex, Ours_P and Ours on small/medium datasets for several (k, q),
// together with the number of maximal k-plexes found. The paper's
// headline shapes: all four report identical counts; Ours is fastest
// (up to ~5x vs ListPlex, ~2x vs FP in the paper); Ours >= Ours_P; no
// clear winner between ListPlex and FP.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common/dataset_registry.h"
#include "bench_common/harness.h"
#include "bench_common/table_printer.h"

namespace {

struct Cell {
  const char* dataset;
  uint32_t k;
  uint32_t q;
};

// (k, q) grids scaled from the paper's {2,3,4} x {12,20,30} to keep the
// synthetic workloads interesting yet laptop-feasible.
const std::vector<Cell> kCells = {
    {"jazz-syn", 2, 12},          {"jazz-syn", 3, 12},
    {"jazz-syn", 4, 12},          {"lastfm-syn", 2, 6},
    {"as-caida-syn", 2, 5},       {"wiki-vote-syn", 2, 12},
    {"wiki-vote-syn", 3, 12},     {"wiki-vote-syn", 4, 20},
    {"soc-epinions-syn", 2, 12},  {"soc-epinions-syn", 3, 12},
    {"soc-epinions-syn", 4, 12},  {"soc-slashdot-syn", 2, 12},
    {"soc-slashdot-syn", 3, 20},  {"soc-slashdot-syn", 4, 20},
    {"email-euall-syn", 3, 12},   {"email-euall-syn", 4, 14},
    {"com-dblp-syn", 2, 7},       {"com-dblp-syn", 3, 8},
    {"amazon0505-syn", 2, 5},     {"amazon0505-syn", 3, 7},
};

}  // namespace

int main() {
  using namespace kplex;
  std::printf("== Table 3: sequential running time (sec) ==\n");
  std::printf(
      "FP vs ListPlex vs Ours_P vs Ours; all four must report the same\n"
      "#k-plexes (cross-checked via result-set fingerprints).\n\n");

  TablePrinter table({"dataset", "k", "q", "#k-plexes", "FP", "ListPlex",
                      "Ours_P", "Ours"});
  bool all_agree = true;
  for (const auto& cell : kCells) {
    auto graph = LoadDataset(cell.dataset);
    if (!graph.ok()) {
      std::fprintf(stderr, "load %s: %s\n", cell.dataset,
                   graph.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row = {cell.dataset, std::to_string(cell.k),
                                    std::to_string(cell.q)};
    uint64_t count = 0, fingerprint = 0;
    std::vector<std::string> times;
    bool first = true;
    for (const char* algo : {"FP", "ListPlex", "Ours_P", "Ours"}) {
      RunOutcome out =
          TimeAlgo(*graph, MakeSequentialAlgo(algo, cell.k, cell.q));
      if (!out.ok) {
        std::fprintf(stderr, "%s on %s failed: %s\n", algo, cell.dataset,
                     out.error.c_str());
        return 1;
      }
      if (first) {
        count = out.num_plexes;
        fingerprint = out.fingerprint;
        first = false;
      } else if (out.fingerprint != fingerprint) {
        all_agree = false;
        std::fprintf(stderr, "RESULT MISMATCH: %s on %s k=%u q=%u\n", algo,
                     cell.dataset, cell.k, cell.q);
      }
      times.push_back(FormatSeconds(out.seconds));
    }
    row.push_back(FormatCount(count));
    row.insert(row.end(), times.begin(), times.end());
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("\nresult sets agree across algorithms: %s\n",
              all_agree ? "yes" : "NO (bug!)");
  return all_agree ? 0 : 1;
}
