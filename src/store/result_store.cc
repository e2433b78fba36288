#include "store/result_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "util/fnv1a.h"
#include "util/mmap_file.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace kplex {
namespace {

namespace fs = std::filesystem;

// Instrument handles resolved once (see query_engine.cc for the idiom).
// Store metrics are process-global: every store feeds the same series,
// and the bytes gauge tracks the store mutated most recently (serve
// processes run exactly one).
Counter& StoreHitsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_store_hits_total");
  return counter;
}
Counter& StoreMissesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_store_misses_total");
  return counter;
}
Counter& StoreWritesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_store_writes_total");
  return counter;
}
Counter& StoreEvictionsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_store_evictions_total");
  return counter;
}
Counter& StoreCorruptEntriesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "kplex_store_corrupt_entries_total");
  return counter;
}
Gauge& StoreBytesGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("kplex_store_bytes");
  return gauge;
}
Histogram& StoreReadSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_stage_store_read_seconds");
  return histogram;
}
Histogram& StoreWriteSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_stage_store_write_seconds");
  return histogram;
}

// ------------------------------------------------------------ file formats

constexpr char kEntryMagic[8] = {'k', 'p', 'x', 's', 't', 'o', 'r', 'e'};
constexpr char kIndexMagic[8] = {'k', 'p', 'x', 's', 'i', 'd', 'x', '1'};
constexpr uint32_t kFormatVersion = 1;
// Written in native order; readers on a different-endian host see the
// tag byte-swapped and refuse the file instead of misreading it.
constexpr uint32_t kByteOrderTag = 0x01020304u;

struct EntryHeader {
  char magic[8];
  uint32_t version;
  uint32_t byte_order;
  uint64_t payload_bytes;
  uint64_t payload_checksum;  // FNV-1a over the payload block
};
static_assert(sizeof(EntryHeader) == 32, "entry header layout drifted");

struct IndexHeader {
  char magic[8];
  uint32_t version;
  uint32_t byte_order;
  uint64_t entry_count;
  uint64_t access_clock;
  uint64_t rows_checksum;  // FNV-1a over the row block
};
static_assert(sizeof(IndexHeader) == 40, "index header layout drifted");

struct IndexRow {
  uint64_t key_hash;
  uint64_t bytes;
  uint64_t last_access;
};
static_assert(sizeof(IndexRow) == 24, "index row layout drifted");

constexpr uint8_t kFlagReductionPrecomputed = 1u << 0;
constexpr uint8_t kFlagHasBodies = 1u << 1;

// ------------------------------------------------- payload (de)serializers

void AppendBytes(std::vector<unsigned char>& out, const void* data,
                 std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  out.insert(out.end(), p, p + bytes);
}

void AppendU32(std::vector<unsigned char>& out, uint32_t v) {
  AppendBytes(out, &v, sizeof(v));
}

void AppendU64(std::vector<unsigned char>& out, uint64_t v) {
  AppendBytes(out, &v, sizeof(v));
}

void AppendVarint(std::vector<unsigned char>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

// Bounds-checked cursor over a read-only byte range; every Read returns
// false instead of walking off the end, so a truncated or bit-flipped
// payload can only ever produce a refusal.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ReadBytes(void* out, std::size_t bytes) {
    if (size_ - pos_ < bytes) return false;
    std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  bool ReadU32(uint32_t& out) { return ReadBytes(&out, sizeof(out)); }
  bool ReadU64(uint64_t& out) { return ReadBytes(&out, sizeof(out)); }

  bool ReadVarint(uint64_t& out) {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return false;
      const unsigned char byte = data_[pos_++];
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical overlong encodings of the top chunk.
        return shift < 63 || byte <= 1;
      }
    }
    return false;
  }

  bool ReadString(std::string& out, std::size_t bytes) {
    if (size_ - pos_ < bytes) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_), bytes);
    pos_ += bytes;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::vector<unsigned char> SerializePayload(const StoreKey& key,
                                            const StoredResult& result) {
  std::vector<unsigned char> payload;
  AppendU64(payload, key.graph_hash);
  AppendU32(payload, static_cast<uint32_t>(key.signature.size()));
  AppendBytes(payload, key.signature.data(), key.signature.size());
  AppendU64(payload, result.num_plexes);
  AppendU64(payload, result.max_plex_size);
  AppendU64(payload, result.fingerprint);
  AppendU64(payload, result.fingerprint_xor);
  AppendU64(payload, result.total_seeds);
  uint64_t seconds_bits = 0;
  static_assert(sizeof(result.compute_seconds) == sizeof(seconds_bits));
  std::memcpy(&seconds_bits, &result.compute_seconds, sizeof(seconds_bits));
  AppendU64(payload, seconds_bits);
  uint8_t flags = 0;
  if (result.reduction_precomputed) flags |= kFlagReductionPrecomputed;
  if (result.plexes != nullptr) flags |= kFlagHasBodies;
  payload.push_back(flags);
  if (result.plexes != nullptr) {
    // The body block: plex count, then per plex its size followed by
    // the vertex ids, all LEB128 varints. List order is preserved
    // exactly (sequential emission order is what cursors paginate).
    AppendVarint(payload, result.plexes->size());
    for (const auto& plex : *result.plexes) {
      AppendVarint(payload, plex.size());
      for (VertexId v : plex) AppendVarint(payload, v);
    }
  }
  return payload;
}

/// Decodes a payload block; returns false on any bounds/consistency
/// violation (the caller treats that as corruption).
bool ParsePayload(const unsigned char* data, std::size_t size,
                  StoreKey& key, StoredResult& result) {
  ByteReader reader(data, size);
  uint32_t signature_size = 0;
  if (!reader.ReadU64(key.graph_hash)) return false;
  if (!reader.ReadU32(signature_size)) return false;
  if (!reader.ReadString(key.signature, signature_size)) return false;
  uint64_t seconds_bits = 0;
  if (!reader.ReadU64(result.num_plexes)) return false;
  if (!reader.ReadU64(result.max_plex_size)) return false;
  if (!reader.ReadU64(result.fingerprint)) return false;
  if (!reader.ReadU64(result.fingerprint_xor)) return false;
  if (!reader.ReadU64(result.total_seeds)) return false;
  if (!reader.ReadU64(seconds_bits)) return false;
  std::memcpy(&result.compute_seconds, &seconds_bits, sizeof(seconds_bits));
  uint8_t flags = 0;
  if (!reader.ReadBytes(&flags, sizeof(flags))) return false;
  if ((flags & ~(kFlagReductionPrecomputed | kFlagHasBodies)) != 0) {
    return false;
  }
  result.reduction_precomputed = (flags & kFlagReductionPrecomputed) != 0;
  if ((flags & kFlagHasBodies) != 0) {
    uint64_t count = 0;
    if (!reader.ReadVarint(count)) return false;
    // Each plex needs at least 1 byte of size prefix: an impossible
    // count is refused before any allocation happens.
    if (count > reader.remaining()) return false;
    std::vector<std::vector<VertexId>> bodies;
    bodies.reserve(static_cast<std::size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t plex_size = 0;
      if (!reader.ReadVarint(plex_size)) return false;
      if (plex_size > reader.remaining()) return false;
      std::vector<VertexId> plex;
      plex.reserve(static_cast<std::size_t>(plex_size));
      for (uint64_t j = 0; j < plex_size; ++j) {
        uint64_t v = 0;
        if (!reader.ReadVarint(v)) return false;
        if (v > UINT32_MAX) return false;
        plex.push_back(static_cast<VertexId>(v));
      }
      bodies.push_back(std::move(plex));
    }
    result.plexes =
        std::make_shared<const std::vector<std::vector<VertexId>>>(
            std::move(bodies));
  } else {
    result.plexes = nullptr;
  }
  return reader.AtEnd();
}

// ----------------------------------------------------------- durable writes

#if defined(__unix__) || defined(__APPLE__)
void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}
#else
void SyncDirectory(const std::string&) {}
#endif

/// The hardened temp-file idiom: write `path + ".tmp"`, flush, fsync,
/// rename, fsync the directory. The two hooks simulate crashes at the
/// marked points by abandoning the operation — the tmp file is left on
/// disk exactly as a dying process would leave it.
Status WriteDurable(
    const std::string& path, const std::string& dir, const void* data,
    std::size_t bytes,
    const std::function<bool(const std::string&)>& before_flush,
    const std::function<bool(const std::string&)>& before_rename) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create '" + tmp + "'");
  }
  if (bytes > 0 && std::fwrite(data, 1, bytes, file) != bytes) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return Status::IoError("short write to '" + tmp + "'");
  }
  if (before_flush && !before_flush(tmp)) {
    std::fclose(file);  // tmp stays behind, possibly torn — like a crash
    return Status::Aborted("simulated crash before flush of '" + tmp + "'");
  }
  if (std::fflush(file) != 0) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return Status::IoError("cannot flush '" + tmp + "'");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return Status::IoError("cannot fsync '" + tmp + "'");
  }
#endif
  std::fclose(file);
  if (before_rename && !before_rename(tmp)) {
    return Status::Aborted("simulated crash before rename of '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' into place");
  }
  SyncDirectory(dir);
  return Status::Ok();
}

/// "<16 hex digits>" of a key hash, or nullopt for foreign filenames.
std::optional<uint64_t> ParseEntryFileName(const std::string& name) {
  constexpr std::size_t kHexDigits = 16;
  const std::string suffix = ".kpr";
  if (name.size() != kHexDigits + suffix.size()) return std::nullopt;
  if (name.compare(kHexDigits, suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  uint64_t hash = 0;
  for (std::size_t i = 0; i < kHexDigits; ++i) {
    const char c = name[i];
    hash <<= 4;
    if (c >= '0' && c <= '9') {
      hash |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      hash |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return hash;
}

}  // namespace

uint64_t ResultStore::KeyHash(const StoreKey& key) {
  const uint64_t hash = Fnv1a(&key.graph_hash, sizeof(key.graph_hash));
  return Fnv1a(key.signature.data(), key.signature.size(), hash);
}

std::string ResultStore::EntryFileName(uint64_t key_hash) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.kpr",
                static_cast<unsigned long long>(key_hash));
  return name;
}

std::string ResultStore::EntryPath(uint64_t key_hash) const {
  return directory_ + "/" + EntryFileName(key_hash);
}

ResultStore::ResultStore(StoreOptions options)
    : directory_(options.directory), byte_budget_(options.byte_budget) {}

StatusOr<std::unique_ptr<ResultStore>> ResultStore::Open(
    StoreOptions options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("result store directory must not be empty");
  }
  std::unique_ptr<ResultStore> store(new ResultStore(std::move(options)));
  Status recovered = store->Recover();
  if (!recovered.ok()) return recovered;
  return store;
}

Status ResultStore::Recover() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_, ec)) {
    return Status::IoError("cannot create store directory '" + directory_ +
                           "'");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  std::map<uint64_t, IndexEntry> persisted;
  uint64_t persisted_clock = 0;
  const bool index_valid = LoadIndex(persisted, persisted_clock);

  // Reconcile the index against what is actually durable: the directory
  // scan is the source of truth, the index only contributes the LRU
  // stamps it remembered. Orphaned tmp files (crash mid-write) are
  // removed — a tmp was never promoted, so it is never trusted.
  bool drifted = !index_valid;
  std::map<uint64_t, IndexEntry> reconciled;
  uint64_t total = 0;
  for (const auto& dirent : fs::directory_iterator(directory_, ec)) {
    const std::string name = dirent.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(dirent.path(), ec);
      drifted = true;
      continue;
    }
    const std::optional<uint64_t> hash = ParseEntryFileName(name);
    if (!hash.has_value()) continue;  // store.idx, *.bad, foreign files
    const uint64_t size = fs::file_size(dirent.path(), ec);
    if (ec) continue;
    IndexEntry entry;
    entry.bytes = size;
    auto it = persisted.find(*hash);
    if (it != persisted.end()) {
      entry.last_access = it->second.last_access;
      if (it->second.bytes != size) drifted = true;
    } else {
      drifted = true;  // durable entry a crash left unindexed
    }
    persisted_clock = std::max(persisted_clock, entry.last_access);
    total += size;
    reconciled.emplace(*hash, entry);
  }
  if (reconciled.size() != persisted.size()) drifted = true;

  index_ = std::move(reconciled);
  total_bytes_ = total;
  access_clock_ = persisted_clock + 1;
  EvictOverBudget(0);
  if (drifted) (void)RewriteIndex();  // best-effort; scan repairs again
  PublishBytesGauge();
  return Status::Ok();
}

bool ResultStore::LoadIndex(std::map<uint64_t, IndexEntry>& loaded,
                            uint64_t& clock) {
  auto file = MappedFile::Open(directory_ + "/store.idx");
  if (!file.ok()) return false;
  const MappedFile& bytes = **file;
  if (bytes.size() < sizeof(IndexHeader)) return false;
  IndexHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return false;
  }
  if (header.version != kFormatVersion) return false;
  if (header.byte_order != kByteOrderTag) return false;
  const std::size_t row_bytes = bytes.size() - sizeof(IndexHeader);
  if (row_bytes % sizeof(IndexRow) != 0) return false;
  if (header.entry_count != row_bytes / sizeof(IndexRow)) return false;
  const unsigned char* rows = bytes.data() + sizeof(IndexHeader);
  if (Fnv1a(rows, row_bytes) != header.rows_checksum) return false;
  for (uint64_t i = 0; i < header.entry_count; ++i) {
    IndexRow row;
    std::memcpy(&row, rows + i * sizeof(IndexRow), sizeof(row));
    loaded[row.key_hash] = IndexEntry{row.bytes, row.last_access};
  }
  clock = header.access_clock;
  return true;
}

Status ResultStore::RewriteIndex() {
  std::vector<unsigned char> blob(sizeof(IndexHeader));
  for (const auto& [hash, entry] : index_) {
    IndexRow row{hash, entry.bytes, entry.last_access};
    AppendBytes(blob, &row, sizeof(row));
  }
  IndexHeader header{};
  std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
  header.version = kFormatVersion;
  header.byte_order = kByteOrderTag;
  header.entry_count = index_.size();
  header.access_clock = access_clock_;
  header.rows_checksum = Fnv1a(blob.data() + sizeof(IndexHeader),
                               blob.size() - sizeof(IndexHeader));
  std::memcpy(blob.data(), &header, sizeof(header));
  return WriteDurable(directory_ + "/store.idx", directory_, blob.data(),
                      blob.size(), nullptr, hooks_.before_index_rename);
}

std::optional<StoredResult> ResultStore::ReadEntry(uint64_t key_hash,
                                                   const StoreKey* key) {
  auto file = MappedFile::Open(EntryPath(key_hash));
  if (!file.ok()) return std::nullopt;
  const MappedFile& bytes = **file;
  bool corrupt = true;
  StoreKey stored_key;
  StoredResult result;
  do {
    if (bytes.size() < sizeof(EntryHeader)) break;
    EntryHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    if (std::memcmp(header.magic, kEntryMagic, sizeof(kEntryMagic)) != 0) {
      break;
    }
    if (header.version != kFormatVersion) break;
    if (header.byte_order != kByteOrderTag) break;
    const unsigned char* payload = bytes.data() + sizeof(EntryHeader);
    const std::size_t payload_size = bytes.size() - sizeof(EntryHeader);
    if (header.payload_bytes != payload_size) break;
    if (Fnv1a(payload, payload_size) != header.payload_checksum) {
      break;
    }
    if (!ParsePayload(payload, payload_size, stored_key, result)) break;
    corrupt = false;
  } while (false);
  if (corrupt) {
    Quarantine(key_hash);
    return std::nullopt;
  }
  if (key != nullptr && (stored_key.graph_hash != key->graph_hash ||
                         stored_key.signature != key->signature)) {
    // A valid entry for a different key: the filename hash collided (or
    // the caller probed a stale name). Not corruption — just a miss.
    return std::nullopt;
  }
  return result;
}

void ResultStore::Quarantine(uint64_t key_hash) {
  const std::string path = EntryPath(key_hash);
  std::error_code ec;
  fs::rename(path, path + ".bad", ec);
  if (ec) fs::remove(path, ec);
  auto it = index_.find(key_hash);
  if (it != index_.end()) {
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    index_.erase(it);
    (void)RewriteIndex();
    PublishBytesGauge();
  }
  ++corrupt_;
  StoreCorruptEntriesTotal().Increment();
}

std::optional<StoredResult> ResultStore::Get(const StoreKey& key) {
  WallTimer timer;
  const uint64_t key_hash = KeyHash(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key_hash);
  if (it == index_.end()) {
    // Probe the directory anyway: under a shared store directory
    // another process may have persisted this key after we opened
    // (last-writer-wins sharing, see the class comment).
    std::error_code ec;
    const uint64_t size = fs::file_size(EntryPath(key_hash), ec);
    if (ec) {
      ++misses_;
      StoreMissesTotal().Increment();
      return std::nullopt;
    }
    it = index_.emplace(key_hash, IndexEntry{size, 0}).first;
    total_bytes_ += size;
  }
  std::optional<StoredResult> result = ReadEntry(key_hash, &key);
  if (!result.has_value()) {
    ++misses_;
    StoreMissesTotal().Increment();
    return std::nullopt;
  }
  it = index_.find(key_hash);
  if (it != index_.end()) it->second.last_access = ++access_clock_;
  ++hits_;
  StoreHitsTotal().Increment();
  StoreReadSeconds().Observe(timer.ElapsedSeconds());
  return result;
}

Status ResultStore::Put(const StoreKey& key, const StoredResult& result) {
  WallTimer timer;
  const uint64_t key_hash = KeyHash(key);
  const std::vector<unsigned char> payload = SerializePayload(key, result);
  EntryHeader header{};
  std::memcpy(header.magic, kEntryMagic, sizeof(kEntryMagic));
  header.version = kFormatVersion;
  header.byte_order = kByteOrderTag;
  header.payload_bytes = payload.size();
  header.payload_checksum = Fnv1a(payload.data(), payload.size());
  std::vector<unsigned char> blob;
  blob.reserve(sizeof(header) + payload.size());
  AppendBytes(blob, &header, sizeof(header));
  AppendBytes(blob, payload.data(), payload.size());

  std::lock_guard<std::mutex> lock(mutex_);
  Status written =
      WriteDurable(EntryPath(key_hash), directory_, blob.data(), blob.size(),
                   hooks_.before_entry_flush, hooks_.before_entry_rename);
  if (!written.ok()) return written;
  auto it = index_.find(key_hash);
  if (it != index_.end()) {
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
  }
  index_[key_hash] = IndexEntry{blob.size(), ++access_clock_};
  total_bytes_ += blob.size();
  ++writes_;
  StoreWritesTotal().Increment();
  EvictOverBudget(key_hash);
  PublishBytesGauge();
  Status indexed = RewriteIndex();
  StoreWriteSeconds().Observe(timer.ElapsedSeconds());
  // An index-rewrite failure leaves the entry durable and the on-disk
  // index stale — the state a crash mid-index-rewrite produces, which
  // the next Open repairs. Surface it so tests can assert the path.
  return indexed;
}

void ResultStore::EvictOverBudget(uint64_t keep) {
  if (byte_budget_ == 0) return;
  while (total_bytes_ > byte_budget_ && index_.size() > 1) {
    auto victim = index_.end();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == index_.end() ||
          it->second.last_access < victim->second.last_access) {
        victim = it;
      }
    }
    if (victim == index_.end()) break;
    std::error_code ec;
    fs::remove(EntryPath(victim->first), ec);
    total_bytes_ -= std::min(total_bytes_, victim->second.bytes);
    index_.erase(victim);
    ++evictions_;
    StoreEvictionsTotal().Increment();
  }
}

ResultStore::EvictOutcome ResultStore::EvictAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  EvictOutcome outcome;
  outcome.entries = index_.size();
  outcome.bytes = total_bytes_;
  for (const auto& [hash, entry] : index_) {
    std::error_code ec;
    fs::remove(EntryPath(hash), ec);
    ++evictions_;
    StoreEvictionsTotal().Increment();
  }
  index_.clear();
  total_bytes_ = 0;
  (void)RewriteIndex();
  PublishBytesGauge();
  return outcome;
}

ResultStore::Stats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.entries = index_.size();
  stats.bytes = total_bytes_;
  stats.byte_budget = byte_budget_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.writes = writes_;
  stats.evictions = evictions_;
  stats.corrupt_entries = corrupt_;
  return stats;
}

void ResultStore::SetHooksForTest(StoreHooks hooks) {
  std::lock_guard<std::mutex> lock(mutex_);
  hooks_ = std::move(hooks);
}

void ResultStore::PublishBytesGauge() {
  StoreBytesGauge().Set(static_cast<int64_t>(total_bytes_));
}

}  // namespace kplex
