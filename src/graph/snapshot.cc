#include "graph/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/csr_access.h"
#include "graph/edge_list_io.h"
#include "util/fnv1a.h"
#include "util/mmap_file.h"

namespace kplex {
namespace {

constexpr char kMagic[8] = {'K', 'P', 'X', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kByteOrderTag = 0x01020304u;
constexpr std::size_t kSectionAlign = 64;
// Backstop against absurd section counts in crafted headers; a real v2
// file has 2 required sections plus a handful of optional ones.
constexpr uint32_t kMaxSections = 4096;

// v1 layout: header, offsets, adjacency, one whole-content checksum.
struct SnapshotHeaderV1 {
  char magic[8];
  uint32_t version;
  uint32_t byte_order;
  uint64_t num_vertices;
  uint64_t num_adjacency;   // directed entries, = 2 * NumEdges()
  uint64_t offsets_bytes;   // (num_vertices + 1) * sizeof(uint64_t)
  uint64_t adjacency_bytes; // num_adjacency * sizeof(VertexId)
  uint64_t checksum;        // FNV-1a over both blobs, offsets first
  uint8_t pad[8];
};
static_assert(sizeof(SnapshotHeaderV1) == kSectionAlign,
              "header must fill exactly one aligned section");

// v2 layout: header, section table, 64-byte-aligned payloads. The
// header checksums the table; each table entry checksums its payload.
struct SnapshotHeaderV2 {
  char magic[8];
  uint32_t version;
  uint32_t byte_order;
  uint64_t num_vertices;
  uint64_t num_adjacency;
  uint32_t section_count;
  uint32_t reserved;
  uint64_t table_checksum;  // FNV-1a over the section table bytes
  uint64_t reserved2;
  uint8_t pad[8];
};
static_assert(sizeof(SnapshotHeaderV2) == kSectionAlign,
              "header must fill exactly one aligned section");

// Section identifiers. Readers skip unknown types (forward compat);
// `param` is type-specific: the core-mask level, or the graph
// degeneracy on the coreness section.
enum SectionType : uint32_t {
  kSectionOffsets = 1,    // uint64_t[n + 1]
  kSectionAdjacency = 2,  // VertexId[num_adjacency]
  kSectionOrder = 3,      // VertexId[n], degeneracy peeling order
  kSectionCoreness = 4,   // uint32_t[n]; param = degeneracy
  kSectionCoreMask = 5,   // uint64_t[ceil(n/64)]; param = core level
};

struct SectionEntry {
  uint32_t type;
  uint32_t param;
  uint64_t offset;  // absolute file offset, 64-byte aligned
  uint64_t length;  // payload bytes (unpadded)
  uint64_t checksum;  // FNV-1a over the payload
};
static_assert(sizeof(SectionEntry) == 32, "section table entry is 32 bytes");

std::size_t AlignUp(std::size_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

Status WritePadding(std::FILE* f, std::size_t bytes) {
  static constexpr char zeros[kSectionAlign] = {};
  if (bytes == 0) return Status::Ok();
  if (std::fwrite(zeros, 1, bytes, f) != bytes) {
    return Status::IoError("short write of snapshot padding");
  }
  return Status::Ok();
}

// The CSR arrays a decoder found in the file, checksums already
// verified, before the structural checks.
struct CsrView {
  const uint64_t* offsets = nullptr;
  const VertexId* adjacency = nullptr;
  uint64_t num_vertices = 0;
  uint64_t num_adjacency = 0;
};

// Structural CSR validation: monotone offsets bracketing the adjacency
// array, and per-row neighbor lists that are strictly ascending, in
// range, and self-loop free — the invariants Graph::HasEdge's binary
// search and the enumerators rely on. (A checksum match already implies
// an uncorrupted SaveSnapshot product; this rejects handcrafted files.
// Row symmetry is the one invariant not checked — it would cost a
// search per edge.) Each row's end is bounded by the adjacency length
// before the row is read.
Status ValidateCsr(const CsrView& csr, const std::string& path) {
  const uint64_t* offsets = csr.offsets;
  const VertexId* adjacency = csr.adjacency;
  const uint64_t num_vertices = csr.num_vertices;
  if (offsets[0] != 0 || offsets[num_vertices] != csr.num_adjacency) {
    return Status::InvalidArgument("snapshot offsets do not bracket the "
                                   "adjacency array in '" + path + "'");
  }
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (offsets[v] > offsets[v + 1] || offsets[v + 1] > csr.num_adjacency) {
      return Status::InvalidArgument(
          "non-monotone or out-of-range snapshot offsets in '" + path + "'");
    }
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adjacency[i] >= num_vertices ||
          adjacency[i] == static_cast<VertexId>(v) ||
          (i > offsets[v] && adjacency[i - 1] >= adjacency[i])) {
        return Status::InvalidArgument(
            "invalid adjacency row (unsorted, duplicate, self-loop, or "
            "out-of-range id) in '" + path + "'");
      }
    }
  }
  return Status::Ok();
}

// The canonical offsets array of an empty (default-constructed) graph,
// which has no owned offsets to serialize.
constexpr uint64_t kEmptyOffsets[1] = {0};

Status SaveSnapshotV2(const Graph& graph, const std::string& path,
                      const SnapshotWriteOptions& options) {
  const auto offsets = graph.RawOffsets();
  const auto adjacency = graph.RawAdjacency();
  const uint64_t* offsets_data = offsets.empty() ? kEmptyOffsets
                                                 : offsets.data();
  const std::size_t offsets_count = offsets.empty() ? 1 : offsets.size();

  GraphPrecompute pre;
  const bool with_precompute =
      options.include_precompute || !options.core_mask_levels.empty();
  if (with_precompute) {
    pre = ComputeGraphPrecompute(graph, options.core_mask_levels);
  }

  struct Blob {
    uint32_t type;
    uint32_t param;
    const void* data;
    std::size_t bytes;
  };
  std::vector<Blob> blobs;
  blobs.push_back({kSectionOffsets, 0, offsets_data,
                   offsets_count * sizeof(uint64_t)});
  blobs.push_back({kSectionAdjacency, 0, adjacency.data(),
                   adjacency.size() * sizeof(VertexId)});
  if (with_precompute) {
    blobs.push_back({kSectionOrder, 0, pre.order.data(),
                     pre.order.size() * sizeof(VertexId)});
    blobs.push_back({kSectionCoreness, pre.degeneracy, pre.coreness.data(),
                     pre.coreness.size() * sizeof(uint32_t)});
    for (const auto& [level, mask] : pre.core_masks) {
      blobs.push_back({kSectionCoreMask, level, mask.data(),
                       mask.size() * sizeof(uint64_t)});
    }
  }

  SnapshotHeaderV2 header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotVersion;
  header.byte_order = kByteOrderTag;
  header.num_vertices = offsets_count - 1;
  header.num_adjacency = adjacency.size();
  header.section_count = static_cast<uint32_t>(blobs.size());

  std::vector<SectionEntry> table(blobs.size());
  std::size_t pos = AlignUp(sizeof(header) +
                            blobs.size() * sizeof(SectionEntry));
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    table[i].type = blobs[i].type;
    table[i].param = blobs[i].param;
    table[i].offset = pos;
    table[i].length = blobs[i].bytes;
    table[i].checksum = Fnv1a(blobs[i].data, blobs[i].bytes);
    pos = AlignUp(pos + blobs[i].bytes);
  }
  header.table_checksum =
      Fnv1a(table.data(), table.size() * sizeof(SectionEntry));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  Status status = Status::Ok();
  if (std::fwrite(&header, sizeof(header), 1, f) != 1) {
    status = Status::IoError("short write of snapshot header");
  }
  if (status.ok() && !table.empty() &&
      std::fwrite(table.data(), sizeof(SectionEntry), table.size(), f) !=
          table.size()) {
    status = Status::IoError("short write of snapshot section table");
  }
  std::size_t written = sizeof(header) + table.size() * sizeof(SectionEntry);
  for (std::size_t i = 0; status.ok() && i < blobs.size(); ++i) {
    status = WritePadding(f, table[i].offset - written);
    if (!status.ok()) break;
    if (blobs[i].bytes > 0 &&
        std::fwrite(blobs[i].data, 1, blobs[i].bytes, f) != blobs[i].bytes) {
      status = Status::IoError("short write of snapshot section");
      break;
    }
    written = table[i].offset + blobs[i].bytes;
  }
  if (std::fclose(f) != 0 && status.ok()) {
    status = Status::IoError("close failed for '" + path + "'");
  }
  return status;
}

// v1: the header, offsets at byte 64, adjacency at the next 64-byte
// boundary, and one checksum over the offsets bytes, then the adjacency
// bytes.
StatusOr<CsrView> ParseSnapshotV1(const unsigned char* data,
                                  std::size_t size, const std::string& path) {
  SnapshotHeaderV1 header;
  std::memcpy(&header, data, sizeof(header));  // caller checked size >= 64
  if (header.num_vertices > static_cast<uint64_t>(VertexId(-1)) ||
      header.num_adjacency > UINT64_MAX / sizeof(VertexId) ||
      header.offsets_bytes != (header.num_vertices + 1) * sizeof(uint64_t) ||
      header.adjacency_bytes != header.num_adjacency * sizeof(VertexId) ||
      header.num_adjacency % 2 != 0) {
    return Status::InvalidArgument("inconsistent snapshot header in '" +
                                   path + "'");
  }
  const std::size_t adjacency_pos =
      AlignUp(sizeof(header) + header.offsets_bytes);
  if (adjacency_pos > size || header.adjacency_bytes > size - adjacency_pos) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' is shorter than its header declares");
  }
  const unsigned char* offsets = data + sizeof(header);
  const unsigned char* adjacency = data + adjacency_pos;
  if (Fnv1a(adjacency, header.adjacency_bytes,
            Fnv1a(offsets, header.offsets_bytes)) != header.checksum) {
    return Status::InvalidArgument("snapshot checksum mismatch in '" + path +
                                   "' (corrupted content)");
  }
  return CsrView{reinterpret_cast<const uint64_t*>(offsets),
                 reinterpret_cast<const VertexId*>(adjacency),
                 header.num_vertices, header.num_adjacency};
}

// v2: the header, a section table the header checksums, and 64-byte
// aligned sections that each carry their own checksum. The optional
// sections become views in `pre`.
StatusOr<CsrView> ParseSnapshotV2(const unsigned char* data,
                                  std::size_t size, GraphPrecompute& pre,
                                  const std::string& path) {
  SnapshotHeaderV2 header;
  std::memcpy(&header, data, sizeof(header));  // caller checked size >= 64

  // The adjacency bound is file-size-relative, which both prevents the
  // `num_adjacency * sizeof(VertexId)` length comparison below from
  // wrapping (a 2^62 claim times 4 is 0 mod 2^64 and would match a
  // zero-length section) and rejects any claim the file cannot hold.
  if (header.num_vertices > static_cast<uint64_t>(VertexId(-1)) ||
      header.num_adjacency % 2 != 0 ||
      header.num_adjacency > size / sizeof(VertexId) ||
      header.section_count > kMaxSections) {
    return Status::InvalidArgument("inconsistent snapshot header in '" +
                                   path + "'");
  }
  const uint64_t n = header.num_vertices;
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionEntry);
  if (sizeof(header) + table_bytes > size) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' is shorter than its section table");
  }
  const auto* table =
      reinterpret_cast<const SectionEntry*>(data + sizeof(header));
  if (Fnv1a(table, table_bytes) != header.table_checksum) {
    return Status::InvalidArgument("snapshot section-table checksum "
                                   "mismatch in '" + path +
                                   "' (corrupted content)");
  }

  const uint64_t* offsets = nullptr;
  const VertexId* adjacency = nullptr;

  for (uint32_t i = 0; i < header.section_count; ++i) {
    const SectionEntry& entry = table[i];
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.length > size - entry.offset) {
      return Status::InvalidArgument(
          "snapshot '" + path +
          "' declares a section outside the file or misaligned");
    }
    const unsigned char* payload = data + entry.offset;
    if (Fnv1a(payload, entry.length) != entry.checksum) {
      return Status::InvalidArgument("snapshot checksum mismatch in '" +
                                     path + "' (corrupted content)");
    }
    switch (entry.type) {
      case kSectionOffsets:
        if (offsets != nullptr || entry.length != (n + 1) * sizeof(uint64_t)) {
          return Status::InvalidArgument(
              "duplicate or mis-sized offsets section in '" + path + "'");
        }
        offsets = reinterpret_cast<const uint64_t*>(payload);
        break;
      case kSectionAdjacency:
        if (adjacency != nullptr ||
            entry.length != header.num_adjacency * sizeof(VertexId)) {
          return Status::InvalidArgument(
              "duplicate or mis-sized adjacency section in '" + path + "'");
        }
        adjacency = reinterpret_cast<const VertexId*>(payload);
        break;
      case kSectionOrder:
        // Sections are 64-byte aligned in the file, so reinterpreting
        // the payload as its element type is well-defined.
        if (!pre.order.empty() ||
            entry.length != n * sizeof(VertexId)) {
          return Status::InvalidArgument(
              "duplicate or mis-sized order section in '" + path + "'");
        }
        pre.SetOrderView(
            {reinterpret_cast<const VertexId*>(payload), n});
        break;
      case kSectionCoreness:
        if (!pre.coreness.empty() ||
            entry.length != n * sizeof(uint32_t)) {
          return Status::InvalidArgument(
              "duplicate or mis-sized coreness section in '" + path + "'");
        }
        pre.SetCorenessView({reinterpret_cast<const uint32_t*>(payload), n});
        pre.degeneracy = entry.param;
        break;
      case kSectionCoreMask: {
        if (entry.length != ((n + 63) / 64) * sizeof(uint64_t) ||
            pre.core_masks.count(entry.param) > 0) {
          return Status::InvalidArgument(
              "duplicate or mis-sized core-mask section in '" + path + "'");
        }
        pre.AddMaskView(
            entry.param,
            {reinterpret_cast<const uint64_t*>(payload), (n + 63) / 64});
        break;
      }
      default:
        break;  // unknown section from a newer writer: skip
    }
  }

  if (offsets == nullptr || adjacency == nullptr) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' is missing its CSR sections");
  }

  // The order section indexes into per-vertex arrays downstream; a
  // checksum-valid handcrafted file must not smuggle in out-of-range
  // ids or duplicates, so require a permutation of [0, n).
  if (!pre.order.empty()) {
    std::vector<char> seen(n, 0);
    for (VertexId v : pre.order) {
      if (v >= n || seen[v]) {
        return Status::InvalidArgument(
            "order section is not a permutation in '" + path + "'");
      }
      seen[v] = 1;
    }
  }
  // Same threat model for masks: a mask is *defined* as the coreness
  // level set, and the reduction stage prefers it over the comparison
  // scan, so an inconsistent handcrafted mask would silently drop
  // vertices from the survivor graph. Masks are only ever consumed
  // alongside coreness, so this check covers every consulted mask.
  if (pre.has_coreness()) {
    for (const auto& [level, mask] : pre.core_masks) {
      const std::vector<uint64_t> expected = PackCoreMask(pre.coreness, level);
      if (mask.size() != expected.size() ||
          !std::equal(mask.begin(), mask.end(), expected.begin())) {
        return Status::InvalidArgument(
            "core-mask section for level " + std::to_string(level) +
            " contradicts the coreness section in '" + path + "'");
      }
    }
  }
  return CsrView{offsets, adjacency, n, header.num_adjacency};
}

}  // namespace

StatusOr<std::vector<uint32_t>> ParseCoreLevelList(const std::string& list) {
  std::vector<uint32_t> levels;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    uint64_t value = 0;
    bool valid = !token.empty() && token.size() <= 10;
    for (char c : token) {
      if (c < '0' || c > '9') {
        valid = false;
        break;
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    if (!valid || value > UINT32_MAX) {
      return Status::InvalidArgument("malformed core-level entry '" + token +
                                     "' in '" + list + "'");
    }
    levels.push_back(static_cast<uint32_t>(value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return levels;
}

Status SaveSnapshot(const Graph& graph, const std::string& path,
                    const SnapshotWriteOptions& options) {
  // Write to a sibling temp file and rename into place. Two reasons:
  // a reader never sees a half-written snapshot, and — critically —
  // `graph` may be a zero-copy view of a mapping of `path` itself
  // (e.g. re-encoding a snapshot with --precompute onto its own file);
  // truncating the mapped file in place would SIGBUS on the very pages
  // being serialized.
  // (Concurrent writers to one target path remain unsupported, as
  // before; the fixed suffix keeps crash leftovers discoverable.)
  const std::string tmp = path + ".tmp";
  Status written = SaveSnapshotV2(graph, tmp, options);
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot move snapshot into place at '" + path +
                           "'");
  }
  return Status::Ok();
}

StatusOr<LoadedSnapshot> LoadSnapshotFull(const std::string& path) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  const unsigned char* data = (*file)->data();
  const std::size_t size = (*file)->size();
  if (size >= sizeof(kMagic) &&
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a kplex snapshot");
  }
  if (size < kSectionAlign) {  // both versions' header size
    return Status::InvalidArgument("'" + path +
                                   "' is too short for a snapshot header");
  }
  uint32_t version = 0, byte_order = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  std::memcpy(&byte_order, data + 12, sizeof(byte_order));
  if (byte_order != kByteOrderTag) {
    return Status::InvalidArgument(
        "'" + path + "' was written on a machine with different byte order");
  }
  if (version != kSnapshotVersion && version != kSnapshotVersionLegacy) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) + " in '" +
        path + "' (expected <= " + std::to_string(kSnapshotVersion) + ")");
  }

  LoadedSnapshot loaded;
  loaded.version = version;
  auto csr = version == kSnapshotVersion
                 ? ParseSnapshotV2(data, size, loaded.precompute, path)
                 : ParseSnapshotV1(data, size, path);
  if (!csr.ok()) return csr.status();
  KPLEX_RETURN_IF_ERROR(ValidateCsr(*csr, path));

  // The graph and the precompute each share the file handle, so either
  // keeps the bytes alive without the other (zero-copy: no section is
  // ever duplicated onto the heap).
  const bool mapped = (*file)->mapped();
  if (!loaded.precompute.empty()) loaded.precompute.SetBacking(*file, mapped);
  if (csr->num_vertices > 0) {
    loaded.graph = CsrAccess::FromView(
        csr->offsets, csr->num_vertices + 1, csr->adjacency,
        csr->num_adjacency, std::move(*file), size, mapped);
    loaded.mapped = mapped;
  }
  return loaded;
}

bool LooksLikeSnapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof(kMagic)];
  const bool match =
      std::fread(magic, sizeof(magic), 1, f) == 1 &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  std::fclose(f);
  return match;
}

StatusOr<LoadedSnapshot> LoadGraphAutoFull(const std::string& path) {
  if (LooksLikeSnapshot(path)) return LoadSnapshotFull(path);
  auto parsed = LoadEdgeList(path);
  if (!parsed.ok()) return parsed.status();
  LoadedSnapshot loaded;
  loaded.graph = *std::move(parsed);
  return loaded;
}

}  // namespace kplex
