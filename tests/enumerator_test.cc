// End-to-end correctness of the enumeration engine and all its variants,
// validated against exhaustive search (small graphs) and against the
// definition-level maximality oracle plus cross-variant agreement
// (larger graphs).

#include "core/enumerator.h"

#include <gtest/gtest.h>

#include "baselines/bk_naive.h"
#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "parallel/parallel_enumerator.h"
#include "tests/test_util.h"

namespace kplex {
namespace {

using testing_util::DiffSets;
using testing_util::ExpectWidthsUpTo;
using testing_util::ResultSet;
using testing_util::RunEngine;
using testing_util::VerifyResultSet;

TEST(Enumerator, RejectsInvalidOptions) {
  Graph g = GraphBuilder::FromEdges(3, {{0, 1}, {1, 2}});
  CollectingSink sink;
  EnumOptions bad_k = EnumOptions::Ours(0, 3);
  EXPECT_FALSE(EnumerateMaximalKPlexes(g, bad_k, sink).ok());
  EnumOptions bad_q = EnumOptions::Ours(3, 4);  // q < 2k - 1
  EXPECT_FALSE(EnumerateMaximalKPlexes(g, bad_q, sink).ok());
}

TEST(Enumerator, EmptyGraph) {
  Graph g = GraphBuilder::FromEdges(0, {});
  CollectingSink sink;
  auto result = EnumerateMaximalKPlexes(g, EnumOptions::Ours(2, 4), sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_plexes, 0u);
}

TEST(Enumerator, SingleCliqueIsTheOnlyMaximalPlex) {
  // K6: the only maximal 2-plex with >= 4 vertices is the clique itself.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) edges.push_back({u, v});
  }
  Graph g = GraphBuilder::FromEdges(6, edges);
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 4));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(Enumerator, CliqueMinusPerfectMatchingIsATwoPlex) {
  // K6 minus a perfect matching {0-1, 2-3, 4-5}: all 6 vertices form a
  // 2-plex (each vertex misses exactly one neighbor plus itself).
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) edges.push_back({u, v});
  }
  auto drop = [&](VertexId a, VertexId b) {
    std::erase(edges, std::make_pair(a, b));
  };
  drop(0, 1);
  drop(2, 3);
  drop(4, 5);
  Graph g = GraphBuilder::FromEdges(6, edges);
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 6));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Exhaustive cross-validation sweep: every engine variant must match the
// brute-force ground truth on random graphs.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::size_t n;
  int edge_percent;
  uint32_t k;
  uint32_t q;
  uint64_t seed;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return "n" + std::to_string(p.n) + "p" + std::to_string(p.edge_percent) +
         "k" + std::to_string(p.k) + "q" + std::to_string(p.q) + "s" +
         std::to_string(p.seed);
}

class BruteForceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BruteForceSweep, AllVariantsMatchGroundTruth) {
  const SweepParam& p = GetParam();
  Graph g = GenerateErdosRenyi(p.n, p.edge_percent / 100.0, p.seed);
  auto truth = BruteForceMaximalKPlexes(g, p.k, p.q);
  ASSERT_TRUE(truth.ok());

  const std::vector<std::pair<std::string, EnumOptions>> variants = {
      {"Ours", EnumOptions::Ours(p.k, p.q)},
      {"Ours_P", EnumOptions::OursP(p.k, p.q)},
      {"Basic", EnumOptions::Basic(p.k, p.q)},
      {"Ours\\ub", EnumOptions::OursNoUb(p.k, p.q)},
      {"Ours\\ub+fp", EnumOptions::OursFpUb(p.k, p.q)},
      {"ListPlex", ListPlexOptions(p.k, p.q)},
  };
  for (const auto& [name, options] : variants) {
    ResultSet results = RunEngine(g, options);
    EXPECT_EQ(results, *truth)
        << name << " disagrees with brute force:\n"
        << DiffSets(*truth, results);
  }
  // FP has its own driver.
  CollectingSink fp_sink;
  auto fp = FpEnumerate(g, FpOptions(p.k, p.q), fp_sink);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp_sink.SortedResults(), *truth)
      << "FP disagrees with brute force:\n"
      << DiffSets(*truth, fp_sink.SortedResults());
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BruteForceSweep,
    ::testing::Values(
        SweepParam{8, 40, 1, 3, 11}, SweepParam{8, 60, 1, 3, 12},
        SweepParam{9, 50, 2, 3, 13}, SweepParam{9, 70, 2, 4, 14},
        SweepParam{10, 30, 2, 3, 15}, SweepParam{10, 50, 2, 4, 16},
        SweepParam{10, 70, 2, 5, 17}, SweepParam{11, 40, 2, 3, 18},
        SweepParam{11, 60, 3, 5, 19}, SweepParam{12, 30, 2, 3, 20},
        SweepParam{12, 50, 3, 5, 21}, SweepParam{12, 70, 3, 6, 22},
        SweepParam{13, 40, 2, 4, 23}, SweepParam{13, 60, 3, 5, 24},
        SweepParam{14, 30, 2, 3, 25}, SweepParam{14, 50, 3, 5, 26},
        SweepParam{14, 45, 4, 7, 27}, SweepParam{12, 80, 4, 8, 28},
        SweepParam{13, 75, 4, 7, 29}, SweepParam{10, 90, 3, 6, 30}),
    SweepName);

// ---------------------------------------------------------------------------
// Larger graphs: variants must agree with each other and with the global
// Bron-Kerbosch reference, and every output must verify as maximal.
// ---------------------------------------------------------------------------

struct MediumParam {
  std::string generator;  // "ba", "er", "erwide", "ws", "planted"
  uint32_t k;
  uint32_t q;
  uint64_t seed;
};

std::string MediumName(const ::testing::TestParamInfo<MediumParam>& info) {
  const auto& p = info.param;
  return p.generator + "k" + std::to_string(p.k) + "q" + std::to_string(p.q) +
         "s" + std::to_string(p.seed);
}

Graph MakeMediumGraph(const std::string& generator, uint64_t seed) {
  if (generator == "ba") return GenerateBarabasiAlbert(60, 6, seed);
  if (generator == "er") return GenerateErdosRenyi(50, 0.2, seed);
  if (generator == "erwide") return GenerateErdosRenyi(200, 0.35, seed);
  if (generator == "ws") return GenerateWattsStrogatz(60, 8, 0.2, seed);
  PlantedCommunityConfig config;
  config.num_communities = 5;
  config.community_size = 7;
  config.missing_per_vertex = 1;
  config.background_vertices = 20;
  config.noise_probability = 0.05;
  return GeneratePlantedCommunities(config, seed).graph;
}

class MediumGraphSweep : public ::testing::TestWithParam<MediumParam> {};

TEST_P(MediumGraphSweep, VariantsAgreeAndOutputsVerify) {
  const MediumParam& p = GetParam();
  Graph g = MakeMediumGraph(p.generator, p.seed);
  // "erwide" is the sweep's input with seed graphs of three-plus words.
  ExpectWidthsUpTo(g, EnumOptions::Ours(p.k, p.q),
                   p.generator == "erwide" ? 3 : 1);

  ResultSet ours = RunEngine(g, EnumOptions::Ours(p.k, p.q));
  VerifyResultSet(g, ours, p.k, p.q);

  CollectingSink bk_sink;
  BkReferenceEnumerate(g, p.k, p.q, bk_sink);
  EXPECT_EQ(ours, bk_sink.SortedResults())
      << "Ours disagrees with the Bron-Kerbosch reference:\n"
      << DiffSets(bk_sink.SortedResults(), ours);

  EXPECT_EQ(RunEngine(g, EnumOptions::OursP(p.k, p.q)), ours);
  EXPECT_EQ(RunEngine(g, EnumOptions::Basic(p.k, p.q)), ours);
  EXPECT_EQ(RunEngine(g, ListPlexOptions(p.k, p.q)), ours);

  CollectingSink fp_sink;
  ASSERT_TRUE(FpEnumerate(g, FpOptions(p.k, p.q), fp_sink).ok());
  EXPECT_EQ(fp_sink.SortedResults(), ours);
}

INSTANTIATE_TEST_SUITE_P(
    MediumGraphs, MediumGraphSweep,
    ::testing::Values(MediumParam{"ba", 2, 5, 101},
                      MediumParam{"ba", 3, 6, 102},
                      MediumParam{"er", 2, 4, 103},
                      MediumParam{"er", 3, 5, 104},
                      MediumParam{"ws", 2, 4, 105},
                      MediumParam{"ws", 3, 5, 106},
                      MediumParam{"planted", 2, 5, 107},
                      MediumParam{"planted", 3, 6, 108},
                      MediumParam{"ba", 4, 8, 109},
                      MediumParam{"planted", 4, 7, 110},
                      // Every variant at one, two and three-plus words:
                      // 8, 16 and 159 built seeds, 533 plexes.
                      MediumParam{"erwide", 1, 7, 4}),
    MediumName);

// ---------------------------------------------------------------------------
// A one-worker run is Algorithm 2's seed loop. Cursors, max-results
// truncation and stream pagination depend on its emission order, so the
// order and the resume cursor are pinned to recorded values, and so are
// the search counters. The inputs cover every width of the branch body:
// one word, two words and three or more.
// ---------------------------------------------------------------------------

// FNV-1a over the emission sequence, plex by plex: any reordering of the
// results changes it.
uint64_t EmissionHash(const std::vector<std::vector<VertexId>>& results) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const auto& plex : results) {
    for (VertexId v : plex) mix(v);
    mix(~uint64_t{0});
  }
  return h;
}

TEST(EnumeratorOrder, OursOursPAndFpMatchTheirPinnedSequences) {
  struct Pinned {
    const char* name;
    Graph graph;
    uint32_t k;
    uint32_t q;
    // Seed graphs of one word up to this many (3: three or more) occur,
    // so the branch body runs at each of those widths.
    uint32_t widest;
    std::size_t count;
    uint64_t ours;
    uint64_t ours_p;
    uint64_t fp;
    // Ours's search: a changed pivot tie-break or bound moves these.
    uint64_t branch_calls;
    uint64_t kplex_shortcuts;
    uint64_t ub_prunes;
    // Ours stopped at `max_results` resumes at this cursor.
    uint64_t max_results;
    uint32_t resume_seed;
    uint64_t resume_ordinal;
  };
  const Pinned cases[] = {
      {"ba", GenerateBarabasiAlbert(300, 8, 555), 2, 6, 1, 1184,
       0x1e2900b273118da1ull, 0xe003996cb839f1e7ull, 0x945b06de68f5b921ull,
       2497, 1287, 188, 100, 174, 14},
      {"er", GenerateErdosRenyi(60, 0.25, 556), 3, 6, 1, 7783,
       0xc3832221cd8fa6fdull, 0x5339cb7c425cfe67ull, 0x950a73bbb64af619ull,
       33170, 8096, 4911, 37, 0, 37},
      {"ws", GenerateWattsStrogatz(200, 10, 0.2, 557), 2, 5, 1, 514,
       0xc9b6245a41bc19dfull, 0xcc852d8ce3d90517ull, 0xa7a7ce831a8160e1ull,
       1013, 626, 85, 37, 8, 4},
      // 97 one-word and 48 two-word seed graphs.
      {"ba-two-words", GenerateBarabasiAlbert(400, 20, 1), 2, 10, 2, 25994,
       0x697bd30d3ce08797ull, 0x3488f1932871a53dull, 0x877a99f11fffcd0full,
       78713, 29749, 6087, 100, 168, 21},
      // 11, 26 and 91 seed graphs of one, two and three-plus words.
      {"er-wide", GenerateErdosRenyi(150, 0.35, 4), 2, 9, 3, 28,
       0xd0ab0a9ba8711ab0ull, 0xd0ab0a9ba8711ab0ull, 0xe4271f5c04a35988ull,
       87568, 28, 61873, 13, 20, 1},
  };
  for (const Pinned& c : cases) {
    SCOPED_TRACE(c.name);
    const EnumOptions ours_options = EnumOptions::Ours(c.k, c.q);
    ExpectWidthsUpTo(c.graph, ours_options, c.widest);
    CollectingSink ours;
    auto sequential = EnumerateMaximalKPlexes(c.graph, ours_options, ours);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(ours.size(), c.count);
    EXPECT_EQ(EmissionHash(ours.Results()), c.ours);
    EXPECT_EQ(sequential->counters.branch_calls, c.branch_calls);
    EXPECT_EQ(sequential->counters.kplex_shortcuts, c.kplex_shortcuts);
    EXPECT_EQ(sequential->counters.ub_prunes, c.ub_prunes);

    // One thread runs on the calling thread with no task timeout,
    // whatever tau asks for: the same sequence and the same counters.
    CollectingSink one_thread;
    ParallelOptions one;
    one.num_threads = 1;
    one.timeout_ms = 0.1;
    auto parallel = ParallelEnumerateMaximalKPlexes(c.graph, ours_options,
                                                    one, one_thread);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(EmissionHash(one_thread.Results()), c.ours);
    EXPECT_EQ(parallel->counters.timeout_spawns, 0u);
    EXPECT_EQ(parallel->counters, sequential->counters);

    CollectingSink ours_p;
    ASSERT_TRUE(EnumerateMaximalKPlexes(c.graph, EnumOptions::OursP(c.k, c.q),
                                        ours_p)
                    .ok());
    EXPECT_EQ(EmissionHash(ours_p.Results()), c.ours_p);

    CollectingSink fp;
    ASSERT_TRUE(FpEnumerate(c.graph, FpOptions(c.k, c.q), fp).ok());
    EXPECT_EQ(EmissionHash(fp.Results()), c.fp);

    EnumOptions capped = ours_options;
    capped.max_results = c.max_results;
    CountingSink counted;
    auto cut = EnumerateMaximalKPlexes(c.graph, capped, counted);
    ASSERT_TRUE(cut.ok());
    EXPECT_TRUE(cut->stopped_early);
    EXPECT_EQ(cut->num_plexes, c.max_results);
    ASSERT_TRUE(cut->has_resume);
    EXPECT_EQ(cut->resume_seed, c.resume_seed);
    EXPECT_EQ(cut->resume_ordinal, c.resume_ordinal);
  }
}

}  // namespace
}  // namespace kplex
