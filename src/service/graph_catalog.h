// GraphCatalog: the resident graph store of the query service. Named
// graphs are registered against a source (edge-list file, snapshot file,
// or dataset_registry key) and materialized lazily on first use; loaded
// graphs are handed out as shared_ptr so in-flight queries keep a graph
// alive across an eviction. A memory budget bounds the resident set:
// when exceeded, least-recently-used reloadable graphs are dropped (they
// re-materialize transparently on the next Get).
//
// Memory accounting distinguishes two kinds of resident bytes:
//  - owned bytes: private heap (parsed edge lists, legacy snapshots,
//    sections computed in process by GetWithSections). These count
//    against the budget.
//  - mapped bytes: mmap'ed v2 snapshot pages served zero-copy — the
//    CSR and any precompute sections, which are views into the same
//    whole-file mapping and count here, not as owned heap. The
//    kernel reclaims clean mapped pages under pressure, so they do NOT
//    count against the budget — that is exactly how many mapped graphs
//    share one budget. They are tracked and reported separately.
//
// Thread-safety: every public method may be called from any thread.
// Graphs are handed out as shared_ptr pins — eviction only drops the
// catalog's own reference, so a mapped snapshot is never unmapped while
// an in-flight query still reads it (the mapping is released when the
// last pin goes away). Materialization runs *outside* the catalog lock
// with a per-entry loading latch: concurrent Gets of the same graph
// load it exactly once (the others wait), and loads of different
// graphs proceed in parallel. See docs/CONCURRENCY.md.

#ifndef KPLEX_SERVICE_GRAPH_CATALOG_H_
#define KPLEX_SERVICE_GRAPH_CATALOG_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/precompute.h"
#include "graph/snapshot.h"
#include "service/lru.h"
#include "util/status.h"

namespace kplex {

/// Point-in-time description of one catalog entry (for `stats` output).
struct CatalogEntryInfo {
  std::string name;
  std::string source;         ///< e.g. "file:web.txt", "dataset:karate"
  bool resident = false;      ///< currently materialized
  bool evictable = false;     ///< can be dropped and re-materialized
  bool mapped = false;        ///< CSR served zero-copy from an mmap
  std::size_t num_vertices = 0;  ///< 0 until first load
  std::size_t num_edges = 0;
  std::size_t memory_bytes = 0;  ///< owned heap bytes while resident
  std::size_t mapped_bytes = 0;  ///< mmap'ed bytes while resident
  /// Precompute-section availability ("none", "order+core", ...);
  /// sticky after the first load so stats stay meaningful when evicted.
  std::string precompute = "unknown";
  /// Content hash of the resident bytes (graph/stats.h); 0 until the
  /// first ContentHash() request computes it. Reset by a reload (the
  /// source may have changed) and recomputed on the next request. This
  /// is the value a sharding coordinator matches workers against.
  uint64_t content_hash = 0;
  uint64_t loads = 0;            ///< materializations (reloads included)
  double last_load_seconds = 0;  ///< wall time of the last materialization
};

/// A materialized graph plus whatever precompute sections its snapshot
/// carried (null when none).
struct CatalogGraph {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const GraphPrecompute> precompute;
};

class GraphCatalog {
 public:
  /// `memory_budget_bytes` bounds the summed *owned* CSR bytes of
  /// resident graphs; 0 means unlimited. Mapped snapshot bytes are
  /// exempt (see the file comment). The budget is best-effort: a single
  /// graph larger than the budget still loads (nothing else stays
  /// resident beside it).
  explicit GraphCatalog(std::size_t memory_budget_bytes = 0)
      : memory_budget_bytes_(memory_budget_bytes) {}

  /// Registers a graph backed by a file; snapshots are auto-detected by
  /// magic, anything else parses as a SNAP edge list. The file is not
  /// touched until the first Get.
  Status RegisterFile(const std::string& name, const std::string& path);

  /// Registers a graph backed by a dataset_registry key.
  Status RegisterDataset(const std::string& name,
                         const std::string& dataset_key);

  /// Inserts an already-built graph. Pinned: it has no source to reload
  /// from, so it is never evicted (and counts toward the budget).
  Status RegisterGraph(const std::string& name, Graph graph);

  /// Returns the named graph, materializing it if needed. Marks the
  /// entry most recently used and evicts LRU entries while over budget.
  StatusOr<std::shared_ptr<const Graph>> Get(const std::string& name);

  /// Get plus the precompute sections the snapshot carried (null
  /// precompute when the source has none).
  StatusOr<CatalogGraph> GetFull(const std::string& name);

  /// GetFull for coordinator traffic (a `plan` probe or a seed-ranged
  /// chunk), which runs the reduction once per request: when the source
  /// carries no sections, the first such request computes the order and
  /// coreness sections (ComputeGraphPrecompute) and the entry keeps
  /// them, so every later chunk skips the full-graph reduction.
  /// Concurrent first requests compute once (the loading latch). The
  /// sections count as owned bytes and go with the resident copy on
  /// eviction; PrecomputeTag keeps reporting what the source carried.
  StatusOr<CatalogGraph> GetWithSections(const std::string& name);

  /// Precompute availability tag for the signature of queries against
  /// `name` ("unknown" until the first materialization, then sticky —
  /// eviction does not reset it). NotFound for unknown names.
  StatusOr<std::string> PrecomputeTag(const std::string& name) const;

  /// Content hash of the named graph (GraphContentHash over its CSR),
  /// materializing it if needed. Computed lazily on the first request —
  /// the O(m) pass would otherwise tax every zero-copy mmap load — and
  /// cached while the entry stays resident. A reload (after eviction)
  /// resets it: the source file may hold different bytes now, and a
  /// stale hash would defeat the shard admission check this value
  /// exists for. NotFound for unknown names.
  StatusOr<uint64_t> ContentHash(const std::string& name);

  /// Drops the resident copy of a reloadable entry (the registration
  /// stays; the next Get reloads). FailedPrecondition for pinned
  /// entries, NotFound for unknown names.
  Status Evict(const std::string& name);

  /// Removes the entry entirely.
  Status Unregister(const std::string& name);

  bool Contains(const std::string& name) const;

  /// Writes a snapshot of the named graph (materializing it if needed),
  /// so subsequent sessions can register the snapshot instead of the
  /// original edge list.
  Status SaveSnapshotFor(const std::string& name, const std::string& path,
                         const SnapshotWriteOptions& options = {});

  /// Entries in registration order.
  std::vector<CatalogEntryInfo> Entries() const;

  /// Summed owned heap bytes of resident graphs (budget-relevant).
  std::size_t ResidentBytes() const;
  /// Summed mmap'ed bytes of resident graphs (budget-exempt).
  std::size_t MappedResidentBytes() const;
  std::size_t MemoryBudgetBytes() const { return memory_budget_bytes_; }

 private:
  enum class SourceKind { kFile, kDataset, kPinned };

  struct Entry {
    SourceKind kind;
    std::string locator;  // path or dataset key; empty for kPinned
    std::shared_ptr<const Graph> graph;  // null while evicted
    std::shared_ptr<const GraphPrecompute> precompute;  // may stay null
    std::size_t num_vertices = 0;
    std::size_t num_edges = 0;
    std::size_t memory_bytes = 0;  // owned bytes while resident
    std::size_t mapped_bytes = 0;  // mapped bytes while resident
    std::string precompute_tag = "unknown";  // sticky after first load
    uint64_t content_hash = 0;  // 0 = not yet computed; sticky once set
    uint64_t loads = 0;
    double last_load_seconds = 0;
    uint64_t sequence = 0;  // registration order for Entries()
    // Loading latch: true while one thread materializes this entry (or
    // computes its sections) outside the lock. Other Gets wait on
    // load_cv_; mutators (Evict, Unregister, budget eviction) wait or
    // skip, so the entry cannot vanish mid-load.
    bool loading = false;
  };

  Status RegisterLocked(const std::string& name, Entry entry);
  StatusOr<CatalogGraph> MaterializeWithLock(
      std::unique_lock<std::mutex>& lock, const std::string& name);
  /// Blocks (releasing the lock) while the named entry is mid-load;
  /// returns the post-wait iterator (entries_.end() if unregistered).
  std::map<std::string, Entry>::iterator WaitWhileLoading(
      std::unique_lock<std::mutex>& lock, const std::string& name);
  void DropResident(Entry& entry);
  void EvictOverBudget(const std::string& keep);

  mutable std::mutex mutex_;
  std::condition_variable load_cv_;  // signalled when a load finishes
  std::map<std::string, Entry> entries_;
  LruList<std::string> lru_;  // resident entries only
  std::size_t memory_budget_bytes_;
  std::size_t resident_bytes_ = 0;         // owned bytes
  std::size_t mapped_resident_bytes_ = 0;  // mapped bytes
  uint64_t next_sequence_ = 0;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_GRAPH_CATALOG_H_
