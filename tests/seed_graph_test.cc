// Structural and soundness tests for seed subgraph construction:
// layout invariants, Corollary 5.2 pruning at fixpoint, exactness
// against the definitions, and — critically — completeness: every
// maximal k-plex (>= q) must survive inside the seed subgraph of its
// minimum-rank member. The build keeps per-thread scratch, so it is also
// checked across graphs and threads, for a cost that follows the seed's
// neighbourhood rather than the graph, for a rejected seed's cost that
// follows its N1 out-lists rather than its neighbours' degrees, and for
// the allocations a warm build makes.

#include "core/seed_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>

#include "baselines/bk_naive.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "util/bitset.h"
#include "util/timer.h"

// This binary counts operator new calls, plain and aligned, while
// `g_count_news` is set. Each replaced form comes with the plain and
// sized deletes that free what it returns; the other forms keep the
// library's own pairs.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<uint64_t> g_news{0};

void CountNew() {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  CountNew();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  CountNew();
  // aligned_alloc takes a size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t bytes = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kplex {
namespace {

template <typename Body>
uint64_t NewsDuring(const Body& body) {
  g_news.store(0);
  g_count_news.store(true);
  body();
  g_count_news.store(false);
  return g_news.load();
}

std::optional<SeedGraph> BuildFor(const Graph& g, VertexId seed,
                                  const EnumOptions& options) {
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  return BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
}

// Two builds agree on every field, the adjacency and the pair matrix.
void ExpectSameSeedGraph(const std::optional<SeedGraph>& a,
                         const std::optional<SeedGraph>& b,
                         const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a.has_value()) return;
  EXPECT_EQ(a->num_vi, b->num_vi) << where;
  EXPECT_EQ(a->num_n1, b->num_n1) << where;
  ASSERT_EQ(a->universe, b->universe) << where;
  EXPECT_EQ(a->to_global, b->to_global) << where;
  EXPECT_EQ(a->deg_vi, b->deg_vi) << where;
  for (uint32_t u = 0; u < a->universe; ++u) {
    for (uint32_t v = 0; v < a->universe; ++v) {
      ASSERT_EQ(a->adj.Test(u, v), b->adj.Test(u, v))
          << where << " edge " << u << "-" << v;
    }
  }
  ASSERT_EQ(a->pairs.has_value(), b->pairs.has_value()) << where;
  if (!a->pairs.has_value()) return;
  EXPECT_EQ(a->pairs->num_pruned_pairs(), b->pairs->num_pruned_pairs())
      << where;
  for (uint32_t u = 0; u < a->num_vi; ++u) {
    const BitSpan ra = a->pairs->Row(u);
    const BitSpan rb = b->pairs->Row(u);
    ASSERT_EQ(ra.num_bits, rb.num_bits) << where << " T row " << u;
    EXPECT_TRUE(std::equal(ra.words, ra.words + ra.num_words(), rb.words))
        << where << " T row " << u;
  }
}

// The seed graph of `seed`, worked out from the definitions with plain
// adjacency queries, in the order BuildSeedGraph lays it out.
struct DefinedSeedGraph {
  bool viable = false;
  std::vector<VertexId> n1, n2, fringe;  // each ascending
  // Corollary 5.2 removals from N1, and from the N2 the surviving N1
  // reaches; 0 when the seed is not viable.
  uint64_t pruned = 0;
};

DefinedSeedGraph FromDefinitions(const Graph& g,
                                 const DegeneracyResult& degeneracy,
                                 VertexId seed, const EnumOptions& options) {
  const int64_t k = options.k;
  const int64_t q = options.q;
  const int64_t thr_n1 = q - 2 * k;
  const int64_t thr_n2 = thr_n1 + 2;
  auto later = [&](VertexId v) {
    return degeneracy.rank[v] > degeneracy.rank[seed];
  };
  auto common = [&](VertexId x, const std::vector<VertexId>& set) {
    return static_cast<int64_t>(std::count_if(
        set.begin(), set.end(), [&](VertexId w) { return g.HasEdge(x, w); }));
  };
  // At distance exactly two from the seed through `via`.
  auto two_hop = [&](VertexId x, const std::vector<VertexId>& via) {
    return x != seed && !g.HasEdge(seed, x) && common(x, via) >= 1;
  };

  DefinedSeedGraph out;
  std::vector<VertexId> n1;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (later(v) && g.HasEdge(seed, v)) n1.push_back(v);
  }
  if (static_cast<int64_t>(n1.size()) + k < q) return out;
  const std::size_t n1_unpruned = n1.size();
  // The greatest subset of N1 whose members each have >= q - 2k
  // neighbours inside it: drop one short member at a time.
  for (bool dropped = true; dropped;) {
    dropped = false;
    for (auto it = n1.begin(); it != n1.end(); ++it) {
      if (common(*it, n1) < thr_n1) {
        n1.erase(it);
        dropped = true;
        break;
      }
    }
  }
  // N2 is what the surviving N1 reaches.
  std::vector<VertexId> n2_reached;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (later(v) && two_hop(v, n1)) n2_reached.push_back(v);
  }
  for (VertexId v : n2_reached) {
    if (common(v, n1) >= thr_n2) out.n2.push_back(v);
  }
  out.viable = static_cast<int64_t>(n1.size()) + k >= q &&
               static_cast<int64_t>(1 + n1.size() + out.n2.size()) >= q;
  if (!out.viable) return out;
  out.pruned =
      (n1_unpruned - n1.size()) + (n2_reached.size() - out.n2.size());
  // Theorem 5.1 on the earlier vertices within two hops, counted against
  // the surviving N1.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v == seed || later(v)) continue;
    if (g.HasEdge(seed, v) ? common(v, n1) >= thr_n1
                           : two_hop(v, n1) && common(v, n1) >= thr_n2) {
      out.fringe.push_back(v);
    }
  }
  out.n1 = std::move(n1);
  return out;
}

TEST(SeedGraph, LayoutInvariants) {
  Graph g = GenerateErdosRenyi(40, 0.25, 7);
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  EnumOptions options = EnumOptions::Ours(2, 4);
  for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
    if (!sg.has_value()) continue;
    // The seed is local 0 and maps back to itself.
    EXPECT_EQ(sg->to_global[SeedGraph::kSeed], seed);
    ASSERT_LE(1 + sg->num_n1, sg->num_vi);
    ASSERT_LE(sg->num_vi, sg->universe);
    ASSERT_EQ(sg->to_global.size(), sg->universe);
    ASSERT_EQ(sg->adj.rows(), sg->universe);
    ASSERT_EQ(sg->adj.cols(), sg->universe);
    const uint32_t n1_end = 1 + sg->num_n1;
    DynamicBitset n1(sg->universe), vi(sg->universe);
    n1.SetRange(1, n1_end);
    vi.SetRange(0, sg->num_vi);
    // N1 = exact local neighbors of the seed.
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      EXPECT_EQ(sg->adj.Test(SeedGraph::kSeed, v), v < n1_end);
    }
    // Every N2 vertex has a N1 witness (distance exactly 2 in G_i).
    for (uint32_t v = n1_end; v < sg->num_vi; ++v) {
      EXPECT_TRUE(sg->adj.Row(v).Intersects(n1));
    }
    // deg_vi consistency.
    for (uint32_t v = 0; v < sg->num_vi; ++v) {
      EXPECT_EQ(sg->deg_vi[v], sg->adj.Row(v).AndCount(vi));
    }
    // Local adjacency is symmetric and mirrors the input graph.
    for (uint32_t a = 0; a < sg->num_vi; ++a) {
      for (uint32_t b = a + 1; b < sg->universe; ++b) {
        EXPECT_EQ(sg->adj.Test(a, b),
                  g.HasEdge(sg->to_global[a], sg->to_global[b]));
        EXPECT_EQ(sg->adj.Test(b, a), sg->adj.Test(a, b));
      }
    }
    // V_i members are later in rank; fringe members earlier.
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      EXPECT_GT(degeneracy.rank[sg->to_global[v]], degeneracy.rank[seed]);
    }
    for (uint32_t v = sg->num_vi; v < sg->universe; ++v) {
      EXPECT_LT(degeneracy.rank[sg->to_global[v]], degeneracy.rank[seed]);
    }
  }
}

TEST(SeedGraph, Corollary52Fixpoint) {
  Graph g = GenerateBarabasiAlbert(60, 5, 13);
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  const uint32_t k = 2, q = 6;
  EnumOptions options = EnumOptions::Ours(k, q);
  for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
    if (!sg.has_value()) continue;
    // After pruning, every survivor satisfies the corollary conditions.
    const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * k;
    const int64_t thr_n2 = thr_n1 + 2;
    DynamicBitset n1(sg->universe);
    n1.SetRange(1, 1 + sg->num_n1);
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      const int64_t common = static_cast<int64_t>(sg->adj.Row(v).AndCount(n1));
      if (v <= sg->num_n1) {
        EXPECT_GE(common, thr_n1) << "seed " << seed << " N1 vertex " << v;
      } else {
        EXPECT_GE(common, thr_n2) << "seed " << seed << " N2 vertex " << v;
      }
    }
  }
}

// Corollary52Fixpoint shows the survivors meet the thresholds; this also
// shows nothing else was pruned or kept. Layout, counts and the pruning
// count must match the definitions over a (k, q) grid down to
// q = 2k - 1, where q - 2k < 0 lets an earlier neighbour of the seed
// with no N1 neighbour into the fringe. The count covers built seed
// graphs only, and N2 as the surviving N1 reaches it: a seed rejected
// at N1 is never walked two hops.
TEST(SeedGraph, MatchesTheDefinitions) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"er", GenerateErdosRenyi(36, 0.3, 5)},
      {"er-dense", GenerateErdosRenyi(28, 0.5, 6)},
      {"ba", GenerateBarabasiAlbert(50, 4, 7)}};
  uint64_t fringe_without_n1_neighbour = 0;
  for (const auto& [name, g] : graphs) {
    const DegeneracyResult degeneracy = ComputeDegeneracy(g);
    for (uint32_t k = 1; k <= 3; ++k) {
      for (uint32_t q : {2 * k - 1, 2 * k, 2 * k + 1, 2 * k + 3}) {
        const EnumOptions options = EnumOptions::Ours(k, q);
        for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
          const std::string where = name + " k=" + std::to_string(k) +
                                    " q=" + std::to_string(q) + " seed " +
                                    std::to_string(seed);
          const DefinedSeedGraph want =
              FromDefinitions(g, degeneracy, seed, options);
          AlgoCounters counters;
          const auto sg =
              BuildSeedGraph(g, {}, degeneracy, seed, options, &counters);
          EXPECT_EQ(counters.seed_vertices_pruned, want.pruned) << where;
          ASSERT_EQ(sg.has_value(), want.viable) << where;
          if (!sg.has_value()) continue;

          std::vector<VertexId> layout = {seed};
          for (const auto* part : {&want.n1, &want.n2, &want.fringe}) {
            layout.insert(layout.end(), part->begin(), part->end());
          }
          EXPECT_EQ(sg->to_global, layout) << where;
          EXPECT_EQ(sg->num_n1, want.n1.size()) << where;
          EXPECT_EQ(sg->num_vi, 1 + want.n1.size() + want.n2.size())
              << where;
          EXPECT_EQ(sg->universe, layout.size()) << where;
          DynamicBitset n1(sg->universe);
          n1.SetRange(1, 1 + sg->num_n1);
          for (uint32_t v = sg->num_vi; v < sg->universe; ++v) {
            if (sg->adj.Test(SeedGraph::kSeed, v) &&
                !sg->adj.Row(v).Intersects(n1)) {
              ++fringe_without_n1_neighbour;
            }
          }
        }
      }
    }
  }
  // The grid must reach the q = 2k - 1 case the comment above describes.
  EXPECT_GT(fringe_without_n1_neighbour, 0u);
}

// Scratch a thread keeps between builds must not leak from one graph
// into the next. Builds on one thread over a large graph, a smaller one,
// the large one again, and then the two alternating seed by seed, each
// match a build on a fresh thread.
TEST(SeedGraph, ScratchReuseAcrossGraphsMatchesFreshThreads) {
  const std::vector<Graph> graphs = {GenerateBarabasiAlbert(400, 6, 21),
                                     GenerateErdosRenyi(60, 0.2, 22)};
  const std::vector<DegeneracyResult> orders = {ComputeDegeneracy(graphs[0]),
                                                ComputeDegeneracy(graphs[1])};
  const EnumOptions options = EnumOptions::Ours(2, 6);
  std::vector<std::pair<std::size_t, VertexId>> builds;  // (graph, seed)
  for (std::size_t g : {0, 1, 0}) {
    for (VertexId seed = 0; seed < graphs[g].NumVertices(); ++seed) {
      builds.emplace_back(g, seed);
    }
  }
  for (VertexId seed = 0; seed < graphs[1].NumVertices(); ++seed) {
    builds.emplace_back(0, seed);
    builds.emplace_back(1, seed);
  }
  for (std::size_t i = 0; i < builds.size(); ++i) {
    const auto [g, seed] = builds[i];
    const std::string where = "build " + std::to_string(i) + ": graph " +
                              std::to_string(g) + " seed " +
                              std::to_string(seed);
    AlgoCounters reused_counters;
    const auto reused = BuildSeedGraph(graphs[g], {}, orders[g], seed,
                                       options, &reused_counters);
    AlgoCounters fresh_counters;
    std::optional<SeedGraph> fresh;
    std::thread([&] {
      fresh = BuildSeedGraph(graphs[g], {}, orders[g], seed, options,
                             &fresh_counters);
    }).join();
    ExpectSameSeedGraph(reused, fresh, where);
    EXPECT_EQ(reused_counters.seed_graphs, fresh_counters.seed_graphs)
        << where;
    EXPECT_EQ(reused_counters.seed_vertices_pruned,
              fresh_counters.seed_vertices_pruned)
        << where;
    EXPECT_EQ(reused_counters.pair_edges_pruned,
              fresh_counters.pair_edges_pruned)
        << where;
  }
}

// A seed's build costs its two-hop neighbourhood, not the graph. The
// first 5000 seeds of a 12-regular ring lattice have the same
// neighbourhoods at 10k and at 320k vertices, so the larger ring must not
// take more than twice as long; graph-sized work arrays per seed once
// made it ~4x. Each side is the fastest of five repeats, and the repeats
// alternate so a burst of host load slows both sides alike.
TEST(SeedGraph, BuildCostDoesNotGrowWithGraphSize) {
  constexpr uint32_t kSeeds = 5000;
  const EnumOptions options = EnumOptions::Ours(2, 8);
  struct Ring {
    Graph graph;
    DegeneracyResult degeneracy;
    double fastest = std::numeric_limits<double>::infinity();
    uint64_t universe_total = 0;
  };
  std::vector<Ring> rings;
  for (std::size_t n : {10000, 320000}) {
    Graph graph = GenerateWattsStrogatz(n, 12, 0.0, 1);
    DegeneracyResult degeneracy = ComputeDegeneracy(graph);
    rings.push_back({std::move(graph), std::move(degeneracy)});
  }
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (Ring& ring : rings) {
      ring.universe_total = 0;
      WallTimer timer;
      for (uint32_t i = 0; i < kSeeds; ++i) {
        const auto sg =
            BuildSeedGraph(ring.graph, {}, ring.degeneracy,
                           ring.degeneracy.order[i], options, nullptr);
        if (sg.has_value()) ring.universe_total += sg->universe;
      }
      ring.fastest = std::min(ring.fastest, timer.ElapsedSeconds());
    }
  }
  const Ring& small = rings[0];
  const Ring& large = rings[1];
  ASSERT_GT(small.universe_total, 0u);
  ASSERT_EQ(small.universe_total, large.universe_total)
      << "the two rings must do equal work";
  EXPECT_LE(large.fastest, 2.0 * small.fastest)
      << "10k ring: " << small.fastest << " s, 320k ring: " << large.fastest
      << " s";
}

// A seed that Corollary 5.2 rejects at N1 costs its N1 out-lists, not
// its neighbours' full adjacency lists. The seed's 8 later neighbours
// share no edge, so at k=2 q=8 none keeps the q - 2k = 4 N1 neighbours
// it needs and the seed goes at N1. Each neighbour is also joined to a
// shared 24-clique, which keeps it ahead of the clique in the order,
// and to L private leaves, which come before it. Raising L from 1k to
// 64k must not double the cost; a build that walked the neighbours' full
// lists would take ~70x. Each side is the fastest of five alternating
// repeats.
TEST(SeedGraph, RejectedSeedCostDoesNotGrowWithNeighbourDegrees) {
  constexpr VertexId kSeed = 0;
  constexpr VertexId kNeighbours = 8;
  constexpr VertexId kCliqueSize = 24;
  constexpr uint32_t kBuilds = 2000;
  const EnumOptions options = EnumOptions::Ours(2, 8);
  struct Case {
    uint32_t leaves;
    Graph graph;
    DegeneracyResult degeneracy;
    double fastest = std::numeric_limits<double>::infinity();
  };
  std::vector<Case> cases;
  for (uint32_t leaves : {1u << 10, 1u << 16}) {
    // Ids: the seed, its neighbours [1, 9), the clique [9, 33), leaves.
    constexpr VertexId kClique = 1 + kNeighbours;
    std::vector<std::pair<VertexId, VertexId>> edges;
    VertexId next = kClique + kCliqueSize;
    for (VertexId a = 1; a <= kNeighbours; ++a) {
      edges.push_back({kSeed, a});
      for (VertexId c = kClique; c < kClique + kCliqueSize; ++c) {
        edges.push_back({a, c});
      }
      for (uint32_t i = 0; i < leaves; ++i) edges.push_back({a, next++});
    }
    for (VertexId c = kClique; c < kClique + kCliqueSize; ++c) {
      for (VertexId d = c + 1; d < kClique + kCliqueSize; ++d) {
        edges.push_back({c, d});
      }
    }
    Graph graph = GraphBuilder::FromEdges(next, edges);
    DegeneracyResult degeneracy = ComputeDegeneracy(graph);
    ASSERT_EQ(degeneracy.Later(kSeed).size(), kNeighbours);
    for (VertexId a = 1; a <= kNeighbours; ++a) {
      ASSERT_EQ(degeneracy.Later(a).size(), kCliqueSize);
    }
    cases.push_back({leaves, std::move(graph), std::move(degeneracy)});
  }
  uint64_t built = 0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (Case& c : cases) {
      WallTimer timer;
      for (uint32_t i = 0; i < kBuilds; ++i) {
        if (BuildSeedGraph(c.graph, {}, c.degeneracy, kSeed, options,
                           nullptr)
                .has_value()) {
          ++built;
        }
      }
      c.fastest = std::min(c.fastest, timer.ElapsedSeconds());
    }
  }
  EXPECT_EQ(built, 0u) << "the seed must be rejected";
  const Case& small = cases[0];
  const Case& large = cases[1];
  EXPECT_LE(large.fastest, 2.0 * small.fastest)
      << small.leaves << " leaves: " << small.fastest << " s, "
      << large.leaves << " leaves: " << large.fastest << " s";
}

// Once a thread's build scratch is warm, a built seed graph makes four
// allocations: to_global, deg_vi, the adjacency matrix and, with R2 on,
// the pair matrix T. Its layout is three counts, so no part of it needs
// a mask of its own, and a rejected seed allocates nothing. The first
// pass over every seed warms the scratch; the second is counted.
TEST(SeedGraph, WarmBuildMakesFourAllocationsPerSeedGraph) {
  const Graph g = GenerateBarabasiAlbert(300, 8, 31);
  const DegeneracyResult degeneracy = ComputeDegeneracy(g);
  const EnumOptions options = EnumOptions::Ours(2, 6);
  ASSERT_TRUE(options.use_pair_pruning_r2);
  auto build_every_seed = [&] {
    uint64_t built = 0;
    for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
      if (BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr)) ++built;
    }
    return built;
  };
  const uint64_t warm = build_every_seed();
  uint64_t built = 0;
  const uint64_t news = NewsDuring([&] { built = build_every_seed(); });
  ASSERT_EQ(built, warm);
  ASSERT_GT(built, 0u);
  ASSERT_LT(built, g.NumVertices()) << "some seed must be rejected";
  EXPECT_EQ(news, 4 * built) << built << " seed graphs built";
}

// Completeness: the union over seeds of "k-plexes representable in the
// seed graph" must cover all ground-truth results.
TEST(SeedGraph, EveryGroundTruthPlexSurvivesInItsSeedGraph) {
  for (uint64_t seed_rng = 1; seed_rng <= 6; ++seed_rng) {
    Graph g = GenerateErdosRenyi(14, 0.5, seed_rng);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 3}, {2, 4}, {3, 5}}) {
      auto truth = BruteForceMaximalKPlexes(g, k, q);
      ASSERT_TRUE(truth.ok());
      EnumOptions options = EnumOptions::Ours(k, q);
      // Mirror the driver: reduce to the (q-k)-core first.
      CoreReduction core = ReduceToCore(g, q - k);
      std::unordered_map<VertexId, VertexId> to_reduced;
      for (VertexId i = 0; i < core.to_original.size(); ++i) {
        to_reduced[core.to_original[i]] = i;
      }
      DegeneracyResult degeneracy = ComputeDegeneracy(core.graph);

      for (const auto& plex : *truth) {
        // All members must be in the core (Theorem 3.5).
        VertexId min_rank_member = 0;
        uint32_t min_rank = UINT32_MAX;
        for (VertexId v : plex) {
          ASSERT_TRUE(to_reduced.count(v)) << "member pruned from core";
          uint32_t r = degeneracy.rank[to_reduced[v]];
          if (r < min_rank) {
            min_rank = r;
            min_rank_member = to_reduced[v];
          }
        }
        auto sg = BuildSeedGraph(core.graph, core.to_original, degeneracy,
                                 min_rank_member, options, nullptr);
        ASSERT_TRUE(sg.has_value())
            << "seed graph for a ground-truth plex was discarded";
        // Every member must exist in V_i (not pruned by Corollary 5.2).
        std::unordered_map<VertexId, uint32_t> to_local;
        for (uint32_t i = 0; i < sg->num_vi; ++i) {
          to_local[sg->to_global[i]] = i;
        }
        for (VertexId v : plex) {
          EXPECT_TRUE(to_local.count(v))
              << "plex member " << v << " missing from V_i";
        }
      }
    }
  }
}

TEST(SeedGraph, InfeasibleSeedsAreDiscarded) {
  // A path graph has max degree 2; with q = 5, k = 1 no seed is viable.
  Graph g = GraphBuilder::FromEdges(6,
                                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto sg = BuildFor(g, 0, EnumOptions::Ours(1, 5));
  EXPECT_FALSE(sg.has_value());
}

TEST(SeedGraph, PairMatrixBuiltOnlyWhenR2Enabled) {
  Graph g = GenerateErdosRenyi(20, 0.4, 3);
  auto with = BuildFor(g, 0, EnumOptions::Ours(2, 4));
  if (with.has_value()) {
    EXPECT_TRUE(with->pairs.has_value());
  }
  EnumOptions no_r2 = EnumOptions::Ours(2, 4);
  no_r2.use_pair_pruning_r2 = false;
  auto without = BuildFor(g, 0, no_r2);
  if (without.has_value()) {
    EXPECT_FALSE(without->pairs.has_value());
  }
}

}  // namespace
}  // namespace kplex
