// End-to-end integration tests: known results on the real karate-club
// graph, full-variant agreement on every small registry dataset, and a
// larger randomized soak that exercises sequential + parallel paths on
// the same workload.

#include <gtest/gtest.h>

#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "bench_common/dataset_registry.h"
#include "bench_common/harness.h"
#include "core/enumerator.h"
#include "core/kplex_verify.h"
#include "graph/edge_list_io.h"
#include "parallel/parallel_enumerator.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::ResultSet;
using testing_util::RunEngine;
using testing_util::VerifyResultSet;

TEST(Integration, KarateClubKnownStructures) {
  auto g = LoadDataset("karate");
  ASSERT_TRUE(g.ok());

  // The karate club's largest clique has 5 vertices: {0,1,2,3,7} and
  // {0,1,2,3,13} (0-based compacted ids of the published 1-based ids
  // {1,2,3,4,8} / {1,2,3,4,14}).
  ResultSet cliques = RunEngine(*g, EnumOptions::Ours(1, 5));
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<VertexId>{0, 1, 2, 3, 7}));
  EXPECT_EQ(cliques[1], (std::vector<VertexId>{0, 1, 2, 3, 13}));

  // Relaxing to 2-plexes merges both cliques (plus vertex 12) into the
  // well-known 6-vertex 2-plex around the instructor.
  ResultSet plexes = RunEngine(*g, EnumOptions::Ours(2, 6));
  ASSERT_EQ(plexes.size(), 1u);
  EXPECT_EQ(plexes[0], (std::vector<VertexId>{0, 1, 2, 3, 7, 13}));

  VerifyResultSet(*g, plexes, 2, 6);
}

TEST(Integration, AllVariantsAgreeOnSmallRegistryDatasets) {
  for (const auto& spec : DatasetsByCategory("small")) {
    auto g = LoadDataset(spec.name);
    ASSERT_TRUE(g.ok());
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 8}, {3, 10}}) {
      RunOutcome reference = TimeAlgo(*g, MakeSequentialAlgo("Ours", k, q));
      ASSERT_TRUE(reference.ok);
      for (const char* algo :
           {"Ours_P", "Basic", "Ours\\ub", "ListPlex", "FP"}) {
        RunOutcome other = TimeAlgo(*g, MakeSequentialAlgo(algo, k, q));
        ASSERT_TRUE(other.ok) << spec.name << " " << algo;
        EXPECT_EQ(other.fingerprint, reference.fingerprint)
            << spec.name << " k=" << k << " q=" << q << " " << algo;
      }
    }
  }
}

TEST(Integration, SequentialAndParallelAgreeOnMediumRegistryDataset) {
  auto g = LoadDataset("com-dblp-syn");
  ASSERT_TRUE(g.ok());
  const uint32_t k = 2, q = 7;

  CollectingSink sequential_sink;
  auto sequential =
      EnumerateMaximalKPlexes(*g, EnumOptions::Ours(k, q), sequential_sink);
  ASSERT_TRUE(sequential.ok());
  // The planted co-authorship graph has 120 communities of size 8.
  EXPECT_EQ(sequential->num_plexes, 120u);

  for (double tau : {0.0, 0.05}) {
    CollectingSink parallel_sink;
    ParallelOptions parallel;
    parallel.num_threads = 3;
    parallel.timeout_ms = tau;
    auto result = ParallelEnumerateMaximalKPlexes(
        *g, EnumOptions::Ours(k, q), parallel, parallel_sink);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(parallel_sink.SortedResults(), sequential_sink.SortedResults());
  }
}

TEST(Integration, SnapRoundTripThenMine) {
  // Save a registry graph in SNAP format, re-load it, and verify mining
  // results are identical — the I/O path preserves graph semantics.
  auto g = LoadDataset("jazz-syn");
  ASSERT_TRUE(g.ok());
  std::string path = ::testing::TempDir() + "kplex_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(*g, path).ok());
  auto reloaded = LoadEdgeList(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(RunEngine(*reloaded, EnumOptions::Ours(2, 10)),
            RunEngine(*g, EnumOptions::Ours(2, 10)));
  std::remove(path.c_str());
}

TEST(Integration, LargeKSweepOnKarate) {
  // k up to 6 with minimal legal q: results of every variant agree and
  // all outputs verify. Exercises deep S-enumeration (|S| up to k-1).
  auto g = LoadDataset("karate");
  ASSERT_TRUE(g.ok());
  for (uint32_t k = 1; k <= 6; ++k) {
    const uint32_t q = 2 * k - 1 > 3 ? 2 * k - 1 : 3;
    ResultSet ours = RunEngine(*g, EnumOptions::Ours(k, q));
    VerifyResultSet(*g, ours, k, q);
    EXPECT_EQ(RunEngine(*g, EnumOptions::OursP(k, q)), ours) << "k=" << k;
    EXPECT_EQ(RunEngine(*g, ListPlexOptions(k, q)), ours) << "k=" << k;
    CollectingSink fp_sink;
    ASSERT_TRUE(FpEnumerate(*g, FpOptions(k, q), fp_sink).ok());
    EXPECT_EQ(fp_sink.SortedResults(), ours) << "k=" << k;
  }
}

}  // namespace
}  // namespace kplex
