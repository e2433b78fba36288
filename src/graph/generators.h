// Deterministic synthetic graph generators. These are the offline
// stand-ins for the SNAP/LAW datasets of the paper's Table 2, which
// cannot be downloaded here; the dataset registry gives each one's
// recipe. Barabasi-Albert and RMAT produce the heavy-tailed degree
// distributions of social/web graphs, Watts-Strogatz the high local
// clustering, and the planted-community generator produces known
// near-clique ground truth for the examples.

#ifndef KPLEX_GRAPH_GENERATORS_H_
#define KPLEX_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace kplex {

/// Erdos-Renyi G(n, p): each pair independently an edge with prob p.
Graph GenerateErdosRenyi(std::size_t n, double p, uint64_t seed);

/// Erdos-Renyi G(n, m): exactly m distinct uniform edges (m must be
/// feasible).
Graph GenerateErdosRenyiM(std::size_t n, std::size_t m, uint64_t seed);

/// Barabasi-Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices chosen proportional to degree.
Graph GenerateBarabasiAlbert(std::size_t n, std::size_t attach,
                             uint64_t seed);

/// Watts-Strogatz small world: ring lattice with `neighbors` (even)
/// nearest neighbors per vertex, each edge rewired with probability beta.
Graph GenerateWattsStrogatz(std::size_t n, std::size_t neighbors,
                            double beta, uint64_t seed);

/// RMAT recursive-matrix generator (web-graph-like skew). 2^scale
/// vertices and ~num_edges edges; (a, b, c) quadrant probabilities with
/// d = 1 - a - b - c.
Graph GenerateRmat(uint32_t scale, std::size_t num_edges, double a, double b,
                   double c, uint64_t seed);

struct PlantedCommunityConfig {
  /// Number of planted communities.
  std::size_t num_communities = 8;
  /// Vertices per community.
  std::size_t community_size = 12;
  /// Per-vertex count of randomly deleted intra-community edges; with
  /// `missing_per_vertex = k - 1` every community is a k-plex.
  std::size_t missing_per_vertex = 1;
  /// Additional background vertices not in any community.
  std::size_t background_vertices = 50;
  /// Probability of a noise edge between any inter-community/background
  /// pair.
  double noise_probability = 0.01;
};

struct PlantedCommunityGraph {
  Graph graph;
  /// community[v] = community index, or kNoCommunity for background.
  std::vector<uint32_t> community;
  static constexpr uint32_t kNoCommunity = 0xffffffffu;
};

/// Plants `num_communities` noisy cliques (each a (missing_per_vertex+1)-
/// plex by construction) in a sparse noise background.
PlantedCommunityGraph GeneratePlantedCommunities(
    const PlantedCommunityConfig& config, uint64_t seed);

}  // namespace kplex

#endif  // KPLEX_GRAPH_GENERATORS_H_
