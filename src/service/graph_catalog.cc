#include "service/graph_catalog.h"

#include <algorithm>
#include <utility>

#include "bench_common/dataset_registry.h"
#include "graph/stats.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kplex {
namespace {

Counter& LoadsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_catalog_loads_total");
  return counter;
}
// Every resident copy dropped: budget eviction, explicit `evict`, or
// unregister.
Counter& EvictionsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_catalog_evictions_total");
  return counter;
}
Gauge& OwnedBytesGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("kplex_catalog_owned_bytes");
  return gauge;
}
Gauge& MappedBytesGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("kplex_catalog_mapped_bytes");
  return gauge;
}

}  // namespace

Status GraphCatalog::RegisterFile(const std::string& name,
                                  const std::string& path) {
  Entry entry;
  entry.kind = SourceKind::kFile;
  entry.locator = path;
  return RegisterLocked(name, std::move(entry));
}

Status GraphCatalog::RegisterDataset(const std::string& name,
                                     const std::string& dataset_key) {
  Entry entry;
  entry.kind = SourceKind::kDataset;
  entry.locator = dataset_key;
  return RegisterLocked(name, std::move(entry));
}

Status GraphCatalog::RegisterGraph(const std::string& name, Graph graph) {
  Entry entry;
  entry.kind = SourceKind::kPinned;
  entry.num_vertices = graph.NumVertices();
  entry.num_edges = graph.NumEdges();
  entry.memory_bytes = graph.MemoryBytes();
  entry.mapped_bytes = graph.MappedBytes();
  entry.precompute_tag = "none";
  entry.loads = 1;
  entry.graph = std::make_shared<const Graph>(std::move(graph));
  return RegisterLocked(name, std::move(entry));
}

Status GraphCatalog::RegisterLocked(const std::string& name, Entry entry) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(name) > 0) {
    return Status::InvalidArgument("graph '" + name +
                                   "' is already registered");
  }
  entry.sequence = next_sequence_++;
  const bool resident = entry.graph != nullptr;
  const std::size_t bytes = entry.memory_bytes;
  const std::size_t mapped = entry.mapped_bytes;
  entries_.emplace(name, std::move(entry));
  if (resident) {
    resident_bytes_ += bytes;
    mapped_resident_bytes_ += mapped;
    LoadsTotal().Increment();
    OwnedBytesGauge().Set(static_cast<int64_t>(resident_bytes_));
    MappedBytesGauge().Set(static_cast<int64_t>(mapped_resident_bytes_));
    lru_.Touch(name);
    EvictOverBudget(name);
  }
  return Status::Ok();
}

std::map<std::string, GraphCatalog::Entry>::iterator
GraphCatalog::WaitWhileLoading(std::unique_lock<std::mutex>& lock,
                               const std::string& name) {
  auto it = entries_.find(name);
  while (it != entries_.end() && it->second.loading) {
    load_cv_.wait(lock);
    it = entries_.find(name);
  }
  return it;
}

StatusOr<CatalogGraph> GraphCatalog::MaterializeWithLock(
    std::unique_lock<std::mutex>& lock, const std::string& name) {
  auto it = WaitWhileLoading(lock, name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' is registered");
  }
  if (it->second.graph != nullptr) {  // resident (maybe loaded while waiting)
    lru_.Touch(name);
    EvictOverBudget(name);
    return CatalogGraph{it->second.graph, it->second.precompute};
  }
  if (it->second.kind == SourceKind::kPinned) {
    return Status::Internal("pinned entry '" + name + "' lost its graph");
  }

  // Load outside the lock so a slow parse or snapshot map of one graph
  // never stalls Gets of other graphs (or stats/cancel traffic). The
  // loading latch makes concurrent Gets of *this* graph wait above,
  // and keeps mutators from erasing the entry mid-load.
  it->second.loading = true;
  const SourceKind kind = it->second.kind;
  const std::string locator = it->second.locator;
  lock.unlock();
  WallTimer timer;
  StatusOr<LoadedSnapshot> loaded = Status::Internal("unreachable");
  if (kind == SourceKind::kFile) {
    loaded = LoadGraphAutoFull(locator);
  } else {
    auto graph = LoadDataset(locator);
    if (graph.ok()) {
      LoadedSnapshot snapshot;
      snapshot.graph = *std::move(graph);
      loaded = std::move(snapshot);
    } else {
      loaded = graph.status();
    }
  }
  const double load_seconds = timer.ElapsedSeconds();
  lock.lock();

  // The entry is guaranteed to still exist: Evict/Unregister block on
  // the loading latch.
  Entry& entry = entries_.at(name);
  entry.loading = false;
  load_cv_.notify_all();
  if (!loaded.ok()) return loaded.status();
  entry.num_vertices = loaded->graph.NumVertices();
  entry.num_edges = loaded->graph.NumEdges();
  entry.precompute_tag = loaded->precompute.AvailabilityTag();
  // Fresh bytes, unknown hash: the source file may have changed since
  // the last load, and a stale hash would let a mismatched snapshot
  // through the shard admission check. ContentHash recomputes on the
  // next request.
  entry.content_hash = 0;
  entry.memory_bytes =
      loaded->graph.MemoryBytes() + loaded->precompute.MemoryBytes();
  entry.mapped_bytes = loaded->graph.MappedBytes();
  entry.graph = std::make_shared<const Graph>(std::move(loaded->graph));
  entry.precompute =
      loaded->precompute.empty()
          ? nullptr
          : std::make_shared<const GraphPrecompute>(
                std::move(loaded->precompute));
  ++entry.loads;
  entry.last_load_seconds = load_seconds;
  resident_bytes_ += entry.memory_bytes;
  mapped_resident_bytes_ += entry.mapped_bytes;
  LoadsTotal().Increment();
  OwnedBytesGauge().Set(static_cast<int64_t>(resident_bytes_));
  MappedBytesGauge().Set(static_cast<int64_t>(mapped_resident_bytes_));
  lru_.Touch(name);
  EvictOverBudget(name);
  return CatalogGraph{entry.graph, entry.precompute};
}

StatusOr<std::shared_ptr<const Graph>> GraphCatalog::Get(
    const std::string& name) {
  auto full = GetFull(name);
  if (!full.ok()) return full.status();
  return std::move(full->graph);
}

StatusOr<CatalogGraph> GraphCatalog::GetFull(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  return MaterializeWithLock(lock, name);
}

StatusOr<CatalogGraph> GraphCatalog::GetWithSections(
    const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto full = MaterializeWithLock(lock, name);
  if (!full.ok() || full->precompute != nullptr) return full;
  // Compute outside the lock under the loading latch: a concurrent
  // request for this graph waits in MaterializeWithLock and then finds
  // the sections attached, and nothing can evict the entry meanwhile.
  entries_.at(name).loading = true;
  lock.unlock();
  auto sections = std::make_shared<const GraphPrecompute>(
      ComputeGraphPrecompute(*full->graph, {}));
  lock.lock();
  Entry& entry = entries_.at(name);
  entry.loading = false;
  load_cv_.notify_all();
  entry.precompute = sections;
  entry.memory_bytes += sections->MemoryBytes();
  resident_bytes_ += sections->MemoryBytes();
  OwnedBytesGauge().Set(static_cast<int64_t>(resident_bytes_));
  EvictOverBudget(name);
  return CatalogGraph{entry.graph, entry.precompute};
}

StatusOr<std::string> GraphCatalog::PrecomputeTag(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' is registered");
  }
  return it->second.precompute_tag;
}

StatusOr<uint64_t> GraphCatalog::ContentHash(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no graph named '" + name + "' is registered");
    }
    // Trust the cached hash only while the bytes that produced it are
    // resident: an evicted entry reloads from a source that may have
    // changed, so the hash must be recomputed with it (materialization
    // clears it).
    if (it->second.graph != nullptr && it->second.content_hash != 0) {
      return it->second.content_hash;
    }
  }
  // Pin the graph (materializing if needed) and hash outside the lock —
  // the O(m) pass must not stall unrelated catalog traffic. Two racing
  // first requests compute the same value; the second store is a no-op.
  auto graph = Get(name);
  if (!graph.ok()) return graph.status();
  const uint64_t hash = GraphContentHash(**graph);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' is registered");
  }
  it->second.content_hash = hash;
  return hash;
}

void GraphCatalog::DropResident(Entry& entry) {
  resident_bytes_ -= entry.memory_bytes;
  mapped_resident_bytes_ -= entry.mapped_bytes;
  entry.memory_bytes = 0;
  entry.mapped_bytes = 0;
  entry.graph.reset();
  entry.precompute.reset();
  EvictionsTotal().Increment();
  OwnedBytesGauge().Set(static_cast<int64_t>(resident_bytes_));
  MappedBytesGauge().Set(static_cast<int64_t>(mapped_resident_bytes_));
}

void GraphCatalog::EvictOverBudget(const std::string& keep) {
  if (memory_budget_bytes_ == 0) return;
  // Walk from the LRU end, skipping the entry being served (evicting it
  // would defeat the Get) and pinned entries (nothing to reload from).
  // Only owned bytes count: mapped pages are the kernel's to reclaim.
  while (resident_bytes_ > memory_budget_bytes_) {
    const std::string* victim = nullptr;
    for (auto it = lru_.order().rbegin(); it != lru_.order().rend(); ++it) {
      if (*it == keep) continue;
      const Entry& entry = entries_.at(*it);
      if (entry.kind == SourceKind::kPinned) continue;
      if (entry.loading) continue;  // its sections are being computed
      if (entry.memory_bytes == 0) continue;  // evicting frees nothing
      victim = &*it;
      break;
    }
    if (victim == nullptr) return;  // nothing evictable remains
    Entry& entry = entries_.at(*victim);
    KPLEX_LOG(Debug) << "catalog: evicting '" << *victim << "' ("
                     << entry.memory_bytes << " bytes) to meet budget";
    const std::string victim_name = *victim;
    DropResident(entry);
    lru_.Erase(victim_name);
  }
}

Status GraphCatalog::Evict(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = WaitWhileLoading(lock, name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' is registered");
  }
  Entry& entry = it->second;
  if (entry.kind == SourceKind::kPinned) {
    return Status::FailedPrecondition(
        "graph '" + name + "' is pinned (no source to reload from)");
  }
  if (entry.graph != nullptr) {
    DropResident(entry);
    lru_.Erase(name);
  }
  return Status::Ok();
}

Status GraphCatalog::Unregister(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = WaitWhileLoading(lock, name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' is registered");
  }
  if (it->second.graph != nullptr) {
    DropResident(it->second);
    lru_.Erase(name);
  }
  entries_.erase(it);
  return Status::Ok();
}

bool GraphCatalog::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) > 0;
}

Status GraphCatalog::SaveSnapshotFor(const std::string& name,
                                     const std::string& path,
                                     const SnapshotWriteOptions& options) {
  auto graph = Get(name);
  if (!graph.ok()) return graph.status();
  return SaveSnapshot(**graph, path, options);
}

std::vector<CatalogEntryInfo> GraphCatalog::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const std::pair<const std::string, Entry>*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& kv : entries_) ordered.push_back(&kv);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return a->second.sequence < b->second.sequence;
  });
  std::vector<CatalogEntryInfo> out;
  out.reserve(ordered.size());
  for (const auto* kv : ordered) {
    const Entry& entry = kv->second;
    CatalogEntryInfo info;
    info.name = kv->first;
    switch (entry.kind) {
      case SourceKind::kFile:
        info.source = "file:" + entry.locator;
        break;
      case SourceKind::kDataset:
        info.source = "dataset:" + entry.locator;
        break;
      case SourceKind::kPinned:
        info.source = "pinned";
        break;
    }
    info.resident = entry.graph != nullptr;
    info.evictable = entry.kind != SourceKind::kPinned;
    info.mapped = entry.mapped_bytes > 0;
    info.num_vertices = entry.num_vertices;
    info.num_edges = entry.num_edges;
    info.memory_bytes = entry.memory_bytes;
    info.mapped_bytes = entry.mapped_bytes;
    info.precompute = entry.precompute_tag;
    info.content_hash = entry.content_hash;
    info.loads = entry.loads;
    info.last_load_seconds = entry.last_load_seconds;
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t GraphCatalog::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t GraphCatalog::MappedResidentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mapped_resident_bytes_;
}

}  // namespace kplex
