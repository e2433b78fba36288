#include "core/seed_graph.h"

#include <algorithm>
#include <limits>

namespace kplex {
namespace {

// Per-vertex scratch, indexed by reduced vertex id. Each build stamps
// the slots of its own two-hop neighbourhood with one of three stamps
// from a range no earlier build used, so every other slot is stale and
// nothing graph-sized is ever cleared.
struct Slot {
  uint32_t stamp = 0;
  uint32_t value = 0;  ///< |N(v) ∩ N1| while pruning; then the local id
};

// Per-thread build state. Slots left by an earlier seed, or by an
// earlier and larger graph, carry smaller stamps than the current build
// and so read as stale; only a wrapped stamp range clears them.
struct Scratch {
  std::vector<Slot> slots;
  uint32_t stamp_reached = 0;  ///< within two hops, not in N1
  uint32_t stamp_n1 = 0;       ///< a surviving N1 member
  uint32_t stamp_local = 0;    ///< in the local universe
  std::vector<VertexId> n1, n2, near, far, peel, local_to_reduced;

  void BeginBuild(std::size_t num_vertices) {
    if (slots.size() < num_vertices) slots.resize(num_vertices);
    if (stamp_local > std::numeric_limits<uint32_t>::max() - 3) {
      for (Slot& slot : slots) slot.stamp = 0;
      stamp_local = 0;
    }
    stamp_reached = stamp_local + 1;
    stamp_n1 = stamp_local + 2;
    stamp_local += 3;
  }
  bool Stale(VertexId v) const { return slots[v].stamp < stamp_reached; }
};

thread_local Scratch tls_scratch;

}  // namespace

std::optional<SeedGraph> BuildSeedGraph(
    const Graph& graph, const std::vector<VertexId>& to_original,
    const DegeneracyResult& degeneracy, uint32_t seed_vertex,
    const EnumOptions& options, AlgoCounters* counters) {
  const uint32_t k = options.k;
  const uint32_t q = options.q;
  const uint32_t seed_rank = degeneracy.rank[seed_vertex];
  auto is_later = [&](VertexId v) {
    return degeneracy.rank[v] > seed_rank;
  };
  Scratch& s = tls_scratch;
  auto common = [&](VertexId v) {
    return static_cast<int64_t>(s.slots[v].value);
  };

  // N1: later neighbors of the seed.
  std::vector<VertexId>& n1 = s.n1;
  n1.clear();
  for (VertexId u : graph.Neighbors(seed_vertex)) {
    if (is_later(u)) n1.push_back(u);
  }
  // Quick Theorem 5.3 feasibility at the seed: any result k-plex P
  // containing v_i satisfies |P| <= deg_{G_i}(v_i) + k <= |N1| + k.
  if (n1.size() + k < q) return std::nullopt;

  // Stamp the seed and its neighbors first: whatever the walk below
  // reaches unstamped is two hops away, later (N2) or earlier (`far`).
  // `near` holds the seed's earlier neighbors. The walk also counts
  // |N(x) ∩ N1| for every vertex x it reaches.
  s.BeginBuild(graph.NumVertices());
  s.slots[seed_vertex] = {s.stamp_reached, 0};
  std::vector<VertexId>& near = s.near;
  near.clear();
  for (VertexId x : graph.Neighbors(seed_vertex)) {
    const bool later = is_later(x);
    s.slots[x] = {later ? s.stamp_n1 : s.stamp_reached, 0};
    if (!later) near.push_back(x);
  }
  std::vector<VertexId>& n2 = s.n2;
  std::vector<VertexId>& far = s.far;
  n2.clear();
  far.clear();
  for (VertexId u : n1) {
    for (VertexId w : graph.Neighbors(u)) {
      if (s.Stale(w)) {
        s.slots[w] = {s.stamp_reached, 0};
        (is_later(w) ? n2 : far).push_back(w);
      }
      ++s.slots[w].value;
    }
  }

  // Corollary 5.2, iterated to its fixpoint:
  //   u in N_{G_i}(v_i):   prune if |N(u) ∩ N_{G_i}(v_i)| < q - 2k,
  //   u in N^2_{G_i}(v_i): prune if |N(u) ∩ N_{G_i}(v_i)| < q - 2k + 2.
  // Peeling N1 keeps every count exact and ends at the greatest N1 that
  // meets its threshold, which is unique. N2 removals change no count,
  // so N2 is filtered once, from the final counts. N2 must also stay
  // within two hops: while N1 is whole (always, without Corollary 5.2,
  // or with q - 2k <= 0) every N2 vertex keeps its N1 witness, and once
  // N1 loses a vertex the N2 threshold is >= 3, so a vertex left without
  // one goes too.
  const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * static_cast<int64_t>(k);
  const int64_t thr_n2 = thr_n1 + 2;
  if (options.use_seed_pruning) {
    std::vector<VertexId>& peel = s.peel;  // drained by the loop below
    auto drop_if_short = [&](VertexId u) {
      if (s.slots[u].stamp == s.stamp_n1 && common(u) < thr_n1) {
        s.slots[u].stamp = s.stamp_reached;
        peel.push_back(u);
      }
    };
    for (VertexId u : n1) drop_if_short(u);
    while (!peel.empty()) {
      const VertexId u = peel.back();
      peel.pop_back();
      for (VertexId w : graph.Neighbors(u)) {
        --s.slots[w].value;
        drop_if_short(w);
      }
    }
    auto dropped = [&](VertexId u) { return s.slots[u].stamp != s.stamp_n1; };
    const std::size_t pruned =
        std::erase_if(n1, dropped) +
        std::erase_if(n2, [&](VertexId u) { return common(u) < thr_n2; });
    if (counters != nullptr) counters->seed_vertices_pruned += pruned;
  }
  if (n1.size() + k < q) return std::nullopt;
  if (1 + n1.size() + n2.size() < q) return std::nullopt;

  // Fringe V'_i: earlier vertices within two hops, filtered by the
  // Theorem 5.1 common-neighbor conditions (common neighbors restricted
  // to the surviving N1, which is where they must live in any extension
  // of a result of this task): q - 2k for the seed's neighbors, q - 2k + 2
  // for the rest, which as above also drops those left with no witness.
  std::erase_if(near, [&](VertexId x) { return common(x) < thr_n1; });
  std::erase_if(far, [&](VertexId x) { return common(x) < thr_n2; });

  // Assemble the local universe: the seed, then N1, N2 and the fringe,
  // each sorted.
  SeedGraph sg;
  sg.num_n1 = static_cast<uint32_t>(n1.size());
  sg.num_vi = static_cast<uint32_t>(1 + n1.size() + n2.size());
  sg.universe = static_cast<uint32_t>(sg.num_vi + near.size() + far.size());
  sg.vi_words = (sg.num_vi + 63) / 64;

  std::vector<VertexId>& local_to_reduced = s.local_to_reduced;
  local_to_reduced.assign(1, seed_vertex);
  for (const std::vector<VertexId>* part : {&n1, &n2, &near, &far}) {
    local_to_reduced.insert(local_to_reduced.end(), part->begin(),
                            part->end());
  }
  auto sort_range = [&](std::size_t from, std::size_t to) {
    std::sort(local_to_reduced.begin() + from, local_to_reduced.begin() + to);
  };
  sort_range(1, 1 + sg.num_n1);
  sort_range(1 + sg.num_n1, sg.num_vi);
  sort_range(sg.num_vi, sg.universe);

  sg.to_global.resize(sg.universe);
  for (uint32_t i = 0; i < sg.universe; ++i) {
    const VertexId reduced = local_to_reduced[i];
    sg.to_global[i] =
        to_original.empty() ? reduced : to_original[reduced];
    s.slots[reduced] = {s.stamp_local, i};
  }

  sg.adj = LocalGraph(sg.universe);
  // Only edges with at least one endpoint in V_i matter; iterate V_i
  // members so fringe-fringe edges are skipped.
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    for (VertexId w : graph.Neighbors(local_to_reduced[i])) {
      const Slot& slot = s.slots[w];
      if (slot.stamp == s.stamp_local) sg.adj.AddEdge(i, slot.value);
    }
  }

  sg.vi_mask.ResizeClear(sg.universe);
  sg.n1_mask.ResizeClear(sg.universe);
  sg.n2_mask.ResizeClear(sg.universe);
  sg.fringe_mask.ResizeClear(sg.universe);
  sg.vi_mask.SetRange(0, sg.num_vi);
  sg.n1_mask.SetRange(1, 1 + sg.num_n1);
  sg.n2_mask.SetRange(1 + sg.num_n1, sg.num_vi);
  sg.fringe_mask.SetRange(sg.num_vi, sg.universe);

  sg.deg_vi.resize(sg.num_vi);
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    // V_i occupies the bit prefix, so the count only walks vi_words.
    sg.deg_vi[i] = static_cast<uint32_t>(
        sg.adj.Row(i).AndCountLimit(sg.vi_mask, sg.vi_words));
  }

  if (options.use_pair_pruning_r2) {
    sg.pairs = BuildPairMatrix(sg, k, q);
    if (counters != nullptr) {
      counters->pair_edges_pruned += sg.pairs->num_pruned_pairs();
    }
  }
  if (counters != nullptr) ++counters->seed_graphs;
  return sg;
}

}  // namespace kplex
