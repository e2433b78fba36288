// Configuration of the k-plex enumeration engine. The option grid spans
// the paper's algorithm ("Ours"), its branching variant ("Ours_P"), and
// the ablation variants of Tables 5 and 6 (Basic, Basic+R1, Basic+R2,
// Ours\ub, Ours\ub+fp).

#ifndef KPLEX_CORE_OPTIONS_H_
#define KPLEX_CORE_OPTIONS_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace kplex {

struct GraphPrecompute;

/// Half-open range [begin, end) of seed *indices* into the canonical
/// seed order of the reduced graph (the degeneracy order of the
/// (q-k)-core under the default options). Every maximal k-plex is
/// emitted from exactly one seed — the minimum-order member of the plex
/// — so disjoint ranges covering the whole seed space partition the
/// result set: N shards merged equal one full run, exactly. Ranges
/// beyond the seed count are clamped (the full default range
/// [0, UINT32_MAX) always means "everything"), which is what lets a
/// coordinator state ranges without knowing the reduced size first.
/// See docs/SHARDING.md for the composition rules.
struct SeedRange {
  uint32_t begin = 0;
  uint32_t end = UINT32_MAX;  ///< exclusive; clamped to the seed count

  /// True when the range selects every seed (the non-sharded default).
  bool IsFull() const { return begin == 0 && end == UINT32_MAX; }
};

/// Order in which seed vertices are processed (Section 3 / Section 4 of
/// the paper). Degeneracy order is both the complexity-bound enabler and
/// the load-balancing choice; the others exist to reproduce the paper's
/// remark that alternative orderings barely matter for correctness but
/// can hurt the seed-subgraph size bound.
enum class VertexOrdering {
  kDegeneracy,       ///< peeling order, ties by vertex id (the default)
  kById,             ///< plain vertex-id order
  kByDegreeAscending ///< static degree order, ties by vertex id
};

/// How Algorithm 3 branches once the pivot has been selected.
enum class BranchingScheme {
  /// The paper's default ("Ours"): if the pivot lies in P, re-pick a new
  /// pivot among its non-neighbors in C (Alg. 3, Lines 15-16) and use
  /// binary include/exclude branching guarded by the Eq (3) upper bound.
  kRepickFromC,
  /// "Ours_P" and ListPlex: when the pivot lies in P, use the
  /// FaPlexen-style multi-way branching Eq (4)-(6) instead of
  /// re-picking. ListPlex differs only in its bound, tie-break and
  /// R1/R2 settings.
  kFaplexenWhenPivotInP,
};

/// Which upper bound guards the include-branch (Alg. 3, Lines 17-18).
enum class UpperBoundMode {
  kNone,      ///< no upper-bound pruning ("Ours\ub", ListPlex)
  kOurs,      ///< Eq (3): min(Thm 5.5 support bound, Thm 5.3 degree bound)
  kFpSorted,  ///< FP-style bound requiring an O(|C| log |C|) sort per call
};

struct EnumOptions {
  /// k of the k-plex definition; must be >= 1.
  uint32_t k = 2;
  /// Minimum size of reported maximal k-plexes; must be >= 2k - 1 (the
  /// connectivity/diameter-2 requirement of Definition 3.4).
  uint32_t q = 4;

  BranchingScheme branching = BranchingScheme::kRepickFromC;
  UpperBoundMode upper_bound = UpperBoundMode::kOurs;

  /// The paper's saturation-seeking pivot tie-break (Alg. 3 Line 8:
  /// among minimum-degree vertices prefer maximum d̄_P). Baselines that
  /// predate this contribution disable it and tie-break by id only.
  bool pivot_saturation_tiebreak = true;

  /// R1: Theorem 5.7 + 5.3 upper bound applied to each initial sub-task.
  bool use_subtask_bound_r1 = true;
  /// R2: vertex-pair pruning matrix (Theorems 5.13, 5.14, 5.15).
  bool use_pair_pruning_r2 = true;

  /// If > 0, the enumeration aborts (reporting timed_out) after roughly
  /// this many seconds.
  double time_limit_seconds = 0.0;

  /// If > 0, the enumeration stops early (cleanly, not flagged as a
  /// timeout) once this many maximal k-plexes have been emitted. Used
  /// for top-N queries and by the maximum-k-plex solver.
  uint64_t max_results = 0;

  /// Cooperative cancellation hook: when non-null, the engines poll the
  /// flag every few thousand branch calls and unwind promptly once it is
  /// set; the run then reports EnumResult::cancelled (and, unlike a
  /// timeout, is never mistaken for a time-limit stop). The same flag
  /// may be shared by many concurrent runs.
  const std::atomic<bool>* cancel = nullptr;

  /// Cooperative yield hook (coordinator work-stealing): when
  /// non-null, the runner checks the flag between stages (a stage is
  /// one seed with one worker) and, once set, stops cleanly before the
  /// next stage, with every worker at the same boundary. Unlike cancel,
  /// a yielded run is a complete answer for the seeds it did process —
  /// EnumResult reports yielded=true and covered_end, so a coordinator
  /// can merge the covered prefix and re-issue the tail elsewhere.
  const std::atomic<bool>* yield = nullptr;

  /// Progress hook: invoked as progress(done, total, outputs) after each
  /// stage that processed a seed (a stage is one seed with one worker;
  /// with several, the hook runs on one thread at the stage barrier),
  /// where `done`/`total` count seed vertices of the reduced graph and
  /// `outputs` is the number of maximal k-plexes emitted so far. Must be
  /// cheap; a null hook costs nothing.
  std::function<void(uint64_t done, uint64_t total, uint64_t outputs)>
      progress;

  /// Minimum milliseconds between progress invocations (obs/
  /// progress_throttle.h). The first and the final (done == total)
  /// invocations always fire; <= 0 disables throttling (every seed /
  /// stage reports). Suppressed invocations are counted in the
  /// kplex_enum_progress_suppressed_total metric.
  double progress_min_interval_ms = 100.0;

  /// Optional precomputed reduction sections for the *input* graph
  /// (degeneracy order, coreness, per-level core masks), typically
  /// decoded from a v2 snapshot (graph/precompute.h). When present and
  /// size-consistent with the graph, the enumerators derive the
  /// (q-k)-core and the seed ordering from these instead of recomputing
  /// them — the result set is identical either way. Borrowed pointer;
  /// must outlive the run.
  const GraphPrecompute* precompute = nullptr;

  /// Shard of the seed space to enumerate (sharded mining). The default
  /// full range is a complete run. The progress hook's done/total then
  /// count the shard's seeds, not the whole reduced graph's.
  SeedRange seed_range;

  /// Seed-vertex processing order. Only kDegeneracy carries the paper's
  /// complexity guarantees; the result *set* is identical under any
  /// ordering (each maximal k-plex is found from its minimum-order
  /// member).
  VertexOrdering ordering = VertexOrdering::kDegeneracy;

  /// Named preset: the paper's full algorithm ("Ours").
  static EnumOptions Ours(uint32_t k, uint32_t q) {
    EnumOptions o;
    o.k = k;
    o.q = q;
    return o;
  }
  /// Named preset: the Ours_P branching variant.
  static EnumOptions OursP(uint32_t k, uint32_t q) {
    EnumOptions o = Ours(k, q);
    o.branching = BranchingScheme::kFaplexenWhenPivotInP;
    return o;
  }
  /// Named preset: Basic = Ours without R1 and R2 (Table 6 baseline).
  static EnumOptions Basic(uint32_t k, uint32_t q) {
    EnumOptions o = Ours(k, q);
    o.use_subtask_bound_r1 = false;
    o.use_pair_pruning_r2 = false;
    return o;
  }
  /// Named preset: Ours without Eq (3) upper-bound pruning (Table 5).
  static EnumOptions OursNoUb(uint32_t k, uint32_t q) {
    EnumOptions o = Ours(k, q);
    o.upper_bound = UpperBoundMode::kNone;
    return o;
  }
  /// Named preset: Ours with the FP-style sorted upper bound (Table 5).
  static EnumOptions OursFpUb(uint32_t k, uint32_t q) {
    EnumOptions o = Ours(k, q);
    o.upper_bound = UpperBoundMode::kFpSorted;
    return o;
  }
};

}  // namespace kplex

#endif  // KPLEX_CORE_OPTIONS_H_
