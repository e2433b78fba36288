#include "core/seed_graph.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace kplex {
namespace {

// Per-vertex scratch, indexed by reduced vertex id. Each build stamps
// the slots of its own two-hop neighbourhood with one of three stamps
// from a range no earlier build used, so every other slot is stale and
// nothing graph-sized is ever cleared.
struct Slot {
  uint32_t stamp = 0;
  uint32_t value = 0;  ///< N1 position; then |N(v) ∩ N1|; then local id
};

// Per-thread build state. Slots left by an earlier seed, or by an
// earlier and larger graph, carry smaller stamps than the current build
// and so read as stale; only a wrapped stamp range clears them.
struct Scratch {
  std::vector<Slot> slots;
  uint32_t stamp_reached = 0;  ///< within two hops, not in N1
  uint32_t stamp_n1 = 0;       ///< a surviving N1 member
  uint32_t stamp_local = 0;    ///< in the local universe
  std::vector<VertexId> n1, n2, near, far, local_to_reduced;
  // The N1 peel works on N1 positions: each member's count of N1
  // neighbours and, once a member has to go, the N1-internal edges as a
  // CSR.
  std::vector<uint32_t> inner_degree, inner_adjacency, peel;
  std::vector<std::size_t> inner_offsets;

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

// Corollary 5.2 on N1 alone: peels `n1` (stamped stamp_n1, value = its
// position) to the greatest subset whose members each have at least
// `threshold` >= 1 neighbours inside it, and keeps the survivors in
// `n1`, still ascending. Returns false as soon as fewer than
// `min_alive` members can survive. Every edge inside N1 lies in the
// out-list of its earlier end, so one pass over the members' out-lists
// finds them all.
bool PeelN1(const DegeneracyResult& degeneracy, uint32_t threshold,
            std::size_t min_alive, Scratch& s) {
  std::vector<VertexId>& n1 = s.n1;
  const uint32_t size = static_cast<uint32_t>(n1.size());
  // Calls fn(i, j) once per edge between N1 positions i and j.
  auto for_each_inner_edge = [&](auto&& fn) {
    for (uint32_t i = 0; i < size; ++i) {
      for (VertexId w : degeneracy.Later(n1[i])) {
        const Slot& slot = s.slots[w];
        if (slot.stamp == s.stamp_n1) fn(i, slot.value);
      }
    }
  };
  std::vector<uint32_t>& degree = s.inner_degree;
  degree.assign(size, 0);
  for_each_inner_edge([&](uint32_t i, uint32_t j) {
    ++degree[i];
    ++degree[j];
  });

  std::vector<uint32_t>& peel = s.peel;
  peel.clear();
  for (uint32_t i = 0; i < size; ++i) {
    if (degree[i] < threshold) peel.push_back(i);
  }
  std::size_t alive = size - peel.size();
  if (alive < min_alive) return false;
  if (peel.empty()) return true;

  // The N1-internal edges as a CSR over positions, from a second pass
  // over the out-lists: offsets first hold each range's end and are
  // walked down to its start as it fills.
  std::vector<std::size_t>& offsets = s.inner_offsets;
  std::vector<uint32_t>& adjacency = s.inner_adjacency;
  offsets.resize(size + 1);
  std::size_t total = 0;
  for (uint32_t i = 0; i < size; ++i) {
    total += degree[i];
    offsets[i] = total;
  }
  offsets[size] = total;
  adjacency.resize(total);
  for_each_inner_edge([&](uint32_t i, uint32_t j) {
    adjacency[--offsets[i]] = j;
    adjacency[--offsets[j]] = i;
  });

  // A member leaves exactly when its count drops from `threshold` to
  // one below, so each leaves once and no flag is needed: the members
  // still in are those whose count stays >= threshold.
  while (!peel.empty()) {
    const uint32_t u = peel.back();
    peel.pop_back();
    for (std::size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const uint32_t w = adjacency[e];
      if (degree[w]-- == threshold) {
        if (--alive < min_alive) return false;
        peel.push_back(w);
      }
    }
  }
  uint32_t kept = 0;
  for (uint32_t i = 0; i < size; ++i) {
    if (degree[i] >= threshold) n1[kept++] = n1[i];
  }
  n1.resize(kept);
  return true;
}

}  // namespace

std::optional<SeedGraph> BuildSeedGraph(
    const Graph& graph, const std::vector<VertexId>& to_original,
    const DegeneracyResult& degeneracy, uint32_t seed_vertex,
    const EnumOptions& options, AlgoCounters* counters) {
  assert(degeneracy.later_offsets.size() == graph.NumVertices() + 1 &&
         "BuildSeedGraph needs the ordering's orientation");
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

  // N1: later neighbors of the seed, its out-list.
  std::vector<VertexId>& n1 = s.n1;
  const std::span<const VertexId> later = degeneracy.Later(seed_vertex);
  n1.assign(later.begin(), later.end());
  // Quick Theorem 5.3 feasibility at the seed: any result k-plex P
  // containing v_i satisfies |P| <= deg_{G_i}(v_i) + k <= |N1| + k.
  if (n1.size() + k < q) return std::nullopt;
  s.BeginBuild(graph.NumVertices());

  // Corollary 5.2, iterated to its fixpoint:
  //   u in N_{G_i}(v_i):   prune if |N(u) ∩ N_{G_i}(v_i)| < q - 2k,
  //   u in N^2_{G_i}(v_i): prune if |N(u) ∩ N_{G_i}(v_i)| < q - 2k + 2.
  // The N1 rule reads only N1's own edges, so N1 is peeled first, over
  // the out-lists, and the seed is rejected there when fewer than q - k
  // members survive: most seeds go before any list longer than the
  // degeneracy is read. The peel ends at the greatest N1 that meets its
  // threshold, which is unique. With q - 2k <= 0 nothing can leave.
  const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * static_cast<int64_t>(k);
  const int64_t thr_n2 = thr_n1 + 2;
  const std::size_t n1_unpruned = n1.size();
  if (thr_n1 > 0) {
    for (uint32_t i = 0; i < n1.size(); ++i) {
      s.slots[n1[i]] = {s.stamp_n1, i};
    }
    const std::size_t min_n1 = q - k;  // q > 2k here
    if (!PeelN1(degeneracy, static_cast<uint32_t>(thr_n1), min_n1, s)) {
      return std::nullopt;
    }
  }

  // Stamp the seed and its neighbors first: whatever the walk below
  // reaches unstamped is two hops away, later (N2) or earlier (`far`).
  // `near` holds the seed's earlier neighbors; N1 members the peel
  // removed are neither. The walk, from the surviving N1 only, counts
  // |N(x) ∩ N1| for every vertex x it reaches.
  s.slots[seed_vertex] = {s.stamp_reached, 0};
  std::vector<VertexId>& near = s.near;
  near.clear();
  for (VertexId x : graph.Neighbors(seed_vertex)) {
    s.slots[x] = {s.stamp_reached, 0};
    if (!is_later(x)) near.push_back(x);
  }
  for (VertexId u : n1) s.slots[u].stamp = s.stamp_n1;
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

  // N2 removals change no count, so N2 is filtered once. Every N2 vertex
  // here has a witness in the surviving N1.
  const std::size_t pruned =
      n1_unpruned - n1.size() +
      std::erase_if(n2, [&](VertexId u) { return common(u) < thr_n2; });
  if (1 + n1.size() + n2.size() < q) return std::nullopt;

  // Fringe V'_i: earlier vertices within two hops, filtered by the
  // Theorem 5.1 common-neighbor conditions (common neighbors restricted
  // to the surviving N1, which is where they must live in any extension
  // of a result of this task): q - 2k for the seed's neighbors, q - 2k + 2
  // for the rest.
  std::erase_if(near, [&](VertexId x) { return common(x) < thr_n1; });
  std::erase_if(far, [&](VertexId x) { return common(x) < thr_n2; });

  // Assemble the local universe: the seed, then N1 (ascending as its
  // out-list is), N2 and the fringe, each sorted.
  SeedGraph sg;
  sg.num_n1 = static_cast<uint32_t>(n1.size());
  sg.num_vi = static_cast<uint32_t>(1 + n1.size() + n2.size());
  sg.universe = static_cast<uint32_t>(sg.num_vi + near.size() + far.size());

  std::vector<VertexId>& local_to_reduced = s.local_to_reduced;
  local_to_reduced.assign(1, seed_vertex);
  for (const std::vector<VertexId>* part : {&n1, &n2, &near, &far}) {
    local_to_reduced.insert(local_to_reduced.end(), part->begin(),
                            part->end());
  }
  auto sort_range = [&](std::size_t from, std::size_t to) {
    std::sort(local_to_reduced.begin() + from, local_to_reduced.begin() + to);
  };
  sort_range(1 + sg.num_n1, sg.num_vi);
  sort_range(sg.num_vi, sg.universe);

  sg.to_global.resize(sg.universe);
  for (uint32_t i = 0; i < sg.universe; ++i) {
    const VertexId reduced = local_to_reduced[i];
    sg.to_global[i] =
        to_original.empty() ? reduced : to_original[reduced];
    s.slots[reduced] = {s.stamp_local, i};
  }

  sg.adj = BitMatrix(sg.universe, sg.universe);
  // Only edges with at least one endpoint in V_i matter; iterate V_i
  // members so fringe-fringe edges are skipped. Each V_i row is set
  // from its own visit; no visit reaches a fringe row, so the V_i end
  // of an edge sets that one too.
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    for (VertexId w : graph.Neighbors(local_to_reduced[i])) {
      const Slot& slot = s.slots[w];
      if (slot.stamp == s.stamp_local) {
        sg.adj.Set(i, slot.value);
        if (slot.value >= sg.num_vi) sg.adj.Set(slot.value, i);
      }
    }
  }

  // V_i is the bit range [0, num_vi): the count reads only its words.
  sg.deg_vi.resize(sg.num_vi);
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    const uint64_t* row = sg.adj.Row(i).words;
    sg.deg_vi[i] =
        static_cast<uint32_t>(kernels::AndCountRange(row, row, 0, sg.num_vi));
  }

  if (options.use_pair_pruning_r2) {
    sg.pairs = BuildPairMatrix(sg, k, q);
  }
  if (counters != nullptr) {
    ++counters->seed_graphs;
    counters->seed_vertices_pruned += pruned;
    if (sg.pairs.has_value()) {
      counters->pair_edges_pruned += sg.pairs->num_pruned_pairs();
    }
  }
  return sg;
}

}  // namespace kplex
