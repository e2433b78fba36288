// Shared helpers for the test suites: canonical result comparison,
// generator shortcuts, and verification of every emitted plex against
// the definition-level oracles.

#ifndef KPLEX_TESTS_TEST_UTIL_H_
#define KPLEX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/kplex_verify.h"
#include "core/options.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"

namespace kplex {
namespace testing_util {

using ResultSet = std::vector<std::vector<VertexId>>;

/// Runs the engine with `options` and returns the sorted result set.
inline ResultSet RunEngine(const Graph& graph, const EnumOptions& options) {
  CollectingSink sink;
  auto result = EnumerateMaximalKPlexes(graph, options, sink);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return sink.SortedResults();
}

/// Asserts every plex in `results` is a maximal k-plex of size >= q and
/// that there are no duplicates.
inline void VerifyResultSet(const Graph& graph, const ResultSet& results,
                            uint32_t k, uint32_t q) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& plex = results[i];
    ASSERT_GE(plex.size(), q);
    ASSERT_TRUE(IsMaximalKPlex(graph, plex, k))
        << "output " << i << " is not a maximal " << k << "-plex";
    if (i > 0) {
      ASSERT_NE(results[i - 1], plex) << "duplicate output";
    }
  }
}

/// Expects the seed graphs a run of `options` on `graph` builds to span
/// every width from one word up to `widest` (3: three or more words).
/// The branch body runs at that width (core/branch.h).
inline void ExpectWidthsUpTo(const Graph& graph, const EnumOptions& options,
                             uint32_t widest) {
  AlgoCounters counters;
  const PreparedReduction prepared =
      PrepareReduction(graph, options, counters);
  std::array<uint32_t, 3> built{};  // one word, two, three or more
  for (uint32_t i = 0; i < prepared.core.graph.NumVertices(); ++i) {
    const auto sg = BuildSeedGraph(prepared.core.graph,
                                   prepared.core.to_original,
                                   prepared.ordering,
                                   prepared.ordering.order[i], options,
                                   nullptr);
    if (!sg.has_value()) continue;
    ++built[std::min<std::size_t>((sg->universe + 63) / 64, 3) - 1];
  }
  for (uint32_t w = 1; w <= widest; ++w) {
    EXPECT_GT(built[w - 1], 0u) << "no seed graph of width " << w;
  }
}

/// Expects got's orientation to be the one `rank` induces: for every
/// vertex v, the out-list is {u in N(v) : rank[u] > rank[v]} ascending,
/// and the lists hold m entries in all.
inline void ExpectOrientedBy(const Graph& graph,
                             const std::vector<uint32_t>& rank,
                             const DegeneracyResult& got) {
  ASSERT_EQ(got.later_offsets.size(), graph.NumVertices() + 1);
  EXPECT_EQ(got.later_neighbors.size(), graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    std::vector<VertexId> want;
    for (VertexId u : graph.Neighbors(v)) {
      if (rank[u] > rank[v]) want.push_back(u);
    }
    const auto later = got.Later(v);
    EXPECT_EQ(std::vector<VertexId>(later.begin(), later.end()), want)
        << "out-list of vertex " << v;
  }
}

/// Pretty difference message for mismatching result sets.
inline std::string DiffSets(const ResultSet& expected,
                            const ResultSet& actual) {
  std::string out;
  auto dump = [](const std::vector<VertexId>& plex) {
    std::string s = "{";
    for (VertexId v : plex) s += std::to_string(v) + ",";
    s += "}";
    return s;
  };
  for (const auto& p : expected) {
    if (std::find(actual.begin(), actual.end(), p) == actual.end()) {
      out += "missing " + dump(p) + "\n";
    }
  }
  for (const auto& p : actual) {
    if (std::find(expected.begin(), expected.end(), p) == expected.end()) {
      out += "extra " + dump(p) + "\n";
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace kplex

#endif  // KPLEX_TESTS_TEST_UTIL_H_
