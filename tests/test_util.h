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
#include "core/task_state.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"
#include "util/rng.h"

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

/// Calls fn(seed_graph) for every seed graph a run of `options` on
/// `graph` builds, in seed order.
template <typename Fn>
void ForEachSeedGraph(const Graph& graph, const EnumOptions& options,
                      Fn&& fn) {
  AlgoCounters counters;
  const PreparedReduction prepared =
      PrepareReduction(graph, options, counters);
  for (uint32_t i = 0; i < prepared.core.graph.NumVertices(); ++i) {
    auto sg = BuildSeedGraph(prepared.core.graph, prepared.core.to_original,
                             prepared.ordering, prepared.ordering.order[i],
                             options, nullptr);
    if (sg.has_value()) fn(std::move(*sg));
  }
}

/// The branch body's width for `sg` (core/branch.h): 1 or 2 words, or 3
/// for three or more.
inline uint32_t WidthClass(const SeedGraph& sg) {
  return std::min<uint32_t>((sg.universe + 63) / 64, 3);
}

/// Expects the seed graphs a run of `options` on `graph` builds to span
/// every width from one word up to `widest` (3: three or more words).
inline void ExpectWidthsUpTo(const Graph& graph, const EnumOptions& options,
                             uint32_t widest) {
  std::array<uint32_t, 3> built{};  // one word, two, three or more
  ForEachSeedGraph(graph, options, [&](SeedGraph&& sg) {
    ++built[WidthClass(sg) - 1];
  });
  for (uint32_t w = 1; w <= widest; ++w) {
    EXPECT_GT(built[w - 1], 0u) << "no seed graph of width " << w;
  }
}

/// Up to `per_width` of the seed graphs a run of `options` on `graph`
/// builds at each width class, in seed order.
inline std::vector<SeedGraph> SeedGraphsByWidth(const Graph& graph,
                                                const EnumOptions& options,
                                                uint32_t per_width) {
  std::array<uint32_t, 3> taken{};
  std::vector<SeedGraph> out;
  ForEachSeedGraph(graph, options, [&](SeedGraph&& sg) {
    if (taken[WidthClass(sg) - 1]++ < per_width) out.push_back(std::move(sg));
  });
  return out;
}

/// A state of `sg` of the kind the branch body meets: P is a k-plex
/// grown from the seed by CanAdd over the rest of V_i, in random order,
/// up to a random size. Each other V_i vertex that P admits goes to C
/// (3 in 4) or X; every other vertex, fringe included, goes to X (1 in
/// 3) or nowhere.
inline TaskState RandomKPlexState(const SeedGraph& sg, uint32_t k, Rng& rng) {
  TaskState st = TaskState::MakeEmpty(sg);
  st.AddToP(sg, SeedGraph::kSeed);
  std::vector<uint32_t> rest;
  for (uint32_t v = 1; v < sg.num_vi; ++v) rest.push_back(v);
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.NextBounded(i)]);
  }
  const uint64_t target = 1 + rng.NextBounded(sg.num_vi);
  std::vector<uint64_t> saturated(st.p.num_words());
  for (uint32_t v : rest) {
    if (st.p_size == target) break;
    st.Saturated(k, saturated.data());
    if (st.CanAdd(sg, saturated.data(), v, k)) st.AddToP(sg, v);
  }
  st.Saturated(k, saturated.data());
  for (uint32_t v = 1; v < sg.universe; ++v) {
    if (st.p.Test(v)) continue;
    if (v < sg.num_vi && st.CanAdd(sg, saturated.data(), v, k)) {
      (rng.NextBounded(4) != 0 ? st.c : st.x).Set(v);
    } else if (rng.NextBounded(3) == 0) {
      st.x.Set(v);
    }
  }
  return st;
}

/// The local id of input vertex `global` in `sg`, or UINT32_MAX.
inline uint32_t LocalIdOf(const SeedGraph& sg, VertexId global) {
  for (uint32_t v = 0; v < sg.universe; ++v) {
    if (sg.to_global[v] == global) return v;
  }
  return UINT32_MAX;
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
