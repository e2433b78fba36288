// Reverse-search enumeration of maximal k-plexes (Berlowitz, Cohen,
// Kimelfeld — SIGMOD 2015; [8] in the paper's Related Work). Instead of
// branch-and-bound set enumeration, it walks the *solution graph*: from
// a maximal k-plex P, neighbor solutions are obtained by injecting an
// outside vertex v, enumerating the maximal k-plexes of the induced
// graph G[P ∪ {v}] (the "input-restricted problem"), and re-maximalizing
// each of them in G. Seeding every vertex's greedy maximalization and
// BFS-ing with a visited set yields every maximal k-plex exactly once.
//
// The paper's claim — "it is less efficient than BK when the goal is to
// enumerate all maximal k-plexes" — is reproduced by
// `bench_paper reverse-search`. The module exists as a second,
// structurally independent exact enumerator: it shares no search code
// with the branch-and-bound engine, which makes it a powerful
// cross-validation oracle (and it has no q >= 2k - 1 restriction since
// it never uses the two-hop property).

#ifndef KPLEX_BASELINES_REVERSE_SEARCH_H_
#define KPLEX_BASELINES_REVERSE_SEARCH_H_

#include <vector>

#include "core/sink.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

/// Greedy maximalization: extends `seed` (must be a k-plex) to a maximal
/// k-plex by repeatedly adding the smallest-id compatible vertex.
/// Deterministic; returns sorted ids.
std::vector<VertexId> MaximalizeKPlex(const Graph& graph,
                                      std::vector<VertexId> seed, uint32_t k);

/// Enumerates every maximal k-plex with at least q vertices (q >= 1;
/// no connectivity requirement) by reverse search. Memory grows with
/// the number of solutions (the visited set), which is the method's
/// inherent cost. Returns the number of emitted plexes.
StatusOr<uint64_t> ReverseSearchEnumerate(const Graph& graph, uint32_t k,
                                          uint32_t q, ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_BASELINES_REVERSE_SEARCH_H_
