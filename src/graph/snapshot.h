// Binary CSR snapshot format (.kpx). A snapshot is a byte-exact
// serialization of a Graph's CSR arrays (plus, in v2, optional
// precomputed reduction sections) behind a versioned header, so loading
// skips the edge-list re-parse and copying too: the file is mmap'ed
// (util/mmap_file.h) and its 64-byte-aligned sections are served as
// zero-copy views. Validation still streams the file once (checksums +
// CSR checks), but a load allocates no graph-sized heap and performs no
// memcpy, and resident mapped graphs cost reclaimable page cache —
// many of them share one memory budget.
//
// Two on-disk versions are read; only v2 is written (full byte-level
// spec, compatibility matrix, and worked examples in
// docs/SNAPSHOT_FORMAT.md):
//
//   v1 (legacy)  fixed 64-byte header, offsets section, adjacency
//                section, whole-content FNV-1a checksum.
//   v2 (current) fixed 64-byte header + section table. Required
//                sections: CSR offsets and adjacency. Optional
//                sections: degeneracy order, coreness, per-level core
//                masks (see graph/precompute.h) — these let warm `mine`
//                calls skip the (q-k)-core reduction and ordering.
//                Every section is 64-byte aligned and carries its own
//                FNV-1a checksum; the header checksums the table.
//
// Load validates magic, version, byte order, section bounds/alignment,
// all checksums, CSR monotonicity, and vertex-id ranges, so a truncated
// or bit-flipped snapshot is rejected instead of producing a malformed
// graph.

#ifndef KPLEX_GRAPH_SNAPSHOT_H_
#define KPLEX_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/precompute.h"
#include "util/status.h"

namespace kplex {

/// Current snapshot format version (bumped on layout changes).
inline constexpr uint32_t kSnapshotVersion = 2;
/// The legacy pre-section-table version, still read, never written.
inline constexpr uint32_t kSnapshotVersionLegacy = 1;

/// Suggested file extension for snapshots.
inline constexpr const char kSnapshotExtension[] = ".kpx";

struct SnapshotWriteOptions {
  /// Also store the degeneracy order + coreness sections (one
  /// degeneracy decomposition at write time buys every future `mine` a
  /// free reduction).
  bool include_precompute = false;
  /// Implies include_precompute: additionally store a packed (q-k)-core
  /// membership mask per listed level.
  std::vector<uint32_t> core_mask_levels;
};

/// A fully decoded snapshot: the graph plus whatever optional sections
/// the file carried (empty GraphPrecompute when none).
struct LoadedSnapshot {
  Graph graph;
  GraphPrecompute precompute;
  /// On-disk version the file was decoded from.
  uint32_t version = 0;
  /// True when the graph's CSR views are mmap-backed; false for the
  /// buffered fallback and for an empty graph.
  bool mapped = false;
};

/// Parses a comma-separated core-level list ("4,8,10") into
/// SnapshotWriteOptions::core_mask_levels values — the one parser
/// behind `kplex_cli snapshot --core-levels` and the serve command's
/// `levels=` option. Digits only per entry; empty entries (including a
/// trailing comma) and an empty list are rejected.
StatusOr<std::vector<uint32_t>> ParseCoreLevelList(const std::string& list);

/// Writes `graph` to `path` as a v2 snapshot (overwrites).
Status SaveSnapshot(const Graph& graph, const std::string& path,
                    const SnapshotWriteOptions& options = {});

/// Reads a v1 or v2 snapshot, decoding optional sections. Returns
/// InvalidArgument for malformed or corrupted content and IoError for
/// filesystem failures.
StatusOr<LoadedSnapshot> LoadSnapshotFull(const std::string& path);

/// True iff the file at `path` starts with the snapshot magic. Cheap
/// sniff used to auto-detect snapshot vs edge-list inputs.
bool LooksLikeSnapshot(const std::string& path);

/// Loads `path` as a snapshot when it carries the snapshot magic and as
/// a SNAP edge list otherwise (with an empty precompute).
StatusOr<LoadedSnapshot> LoadGraphAutoFull(const std::string& path);

}  // namespace kplex

#endif  // KPLEX_GRAPH_SNAPSHOT_H_
