// Test-side snapshot writers for files the library does not write: v1
// (read by current builds, no longer written) and handcrafted v2 files
// holding only the two CSR sections. Checksums are valid, so a file
// reaches the loader's structural checks. Layouts follow
// docs/SNAPSHOT_FORMAT.md.

#ifndef KPLEX_TESTS_SNAPSHOT_FILES_H_
#define KPLEX_TESTS_SNAPSHOT_FILES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/snapshot.h"
#include "util/fnv1a.h"

namespace kplex {
namespace testing_util {

inline void WriteBytes(const std::string& path,
                       std::span<const unsigned char> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline std::size_t AlignTo64(std::size_t offset) {
  return (offset + 63) / 64 * 64;
}

/// v1 bytes: the 64-byte header, offsets at byte 64, adjacency at the
/// next 64-byte boundary, one checksum over both arrays.
inline std::vector<unsigned char> V1SnapshotBytes(
    std::span<const uint64_t> offsets, std::span<const VertexId> adjacency) {
  struct Header {
    char magic[8];
    uint32_t version;
    uint32_t byte_order;
    uint64_t num_vertices;
    uint64_t num_adjacency;
    uint64_t offsets_bytes;
    uint64_t adjacency_bytes;
    uint64_t checksum;
    uint8_t pad[8];
  } header = {};
  std::memcpy(header.magic, "KPXSNAP\0", 8);
  header.version = kSnapshotVersionLegacy;
  header.byte_order = 0x01020304u;
  header.num_vertices = offsets.size() - 1;
  header.num_adjacency = adjacency.size();
  header.offsets_bytes = offsets.size_bytes();
  header.adjacency_bytes = adjacency.size_bytes();
  header.checksum = Fnv1a(adjacency.data(), adjacency.size_bytes(),
                          Fnv1a(offsets.data(), offsets.size_bytes()));
  const std::size_t adjacency_pos =
      AlignTo64(sizeof(header) + offsets.size_bytes());
  std::vector<unsigned char> bytes(adjacency_pos + adjacency.size_bytes());
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::memcpy(bytes.data() + sizeof(header), offsets.data(),
              offsets.size_bytes());
  if (!adjacency.empty()) {
    std::memcpy(bytes.data() + adjacency_pos, adjacency.data(),
                adjacency.size_bytes());
  }
  return bytes;
}

/// The v1 file of `graph` (an empty graph writes the offsets {0}).
inline std::vector<unsigned char> V1SnapshotBytes(const Graph& graph) {
  static constexpr uint64_t kEmptyOffsets[1] = {0};
  return V1SnapshotBytes(graph.RawOffsets().empty()
                             ? std::span<const uint64_t>(kEmptyOffsets)
                             : graph.RawOffsets(),
                         graph.RawAdjacency());
}

inline void WriteV1Snapshot(const std::string& path,
                            std::span<const uint64_t> offsets,
                            std::span<const VertexId> adjacency) {
  WriteBytes(path, V1SnapshotBytes(offsets, adjacency));
}

inline void WriteV1Snapshot(const std::string& path, const Graph& graph) {
  WriteBytes(path, V1SnapshotBytes(graph));
}

/// A v2 file of only the two CSR sections: the header, a two-entry
/// table, offsets at byte 128, adjacency at the next 64-byte boundary.
/// `num_adjacency` is the header's claim, which a test may set apart
/// from the adjacency it writes.
inline void WriteV2Snapshot(const std::string& path,
                            std::span<const uint64_t> offsets,
                            std::span<const VertexId> adjacency,
                            uint64_t num_adjacency) {
  struct Entry {
    uint32_t type;
    uint32_t param;
    uint64_t offset;
    uint64_t length;
    uint64_t checksum;
  } table[2] = {};
  const std::size_t adjacency_pos = AlignTo64(128 + offsets.size_bytes());
  table[0] = {1, 0, 128, offsets.size_bytes(),
              Fnv1a(offsets.data(), offsets.size_bytes())};
  table[1] = {2, 0, adjacency_pos, adjacency.size_bytes(),
              Fnv1a(adjacency.data(), adjacency.size_bytes())};
  std::vector<unsigned char> bytes(adjacency_pos + adjacency.size_bytes());
  std::memcpy(bytes.data(), "KPXSNAP\0", 8);
  const uint32_t version = kSnapshotVersion, byte_order = 0x01020304u;
  const uint64_t num_vertices = offsets.size() - 1;
  const uint32_t section_count = 2;
  const uint64_t table_checksum = Fnv1a(table, sizeof(table));
  std::memcpy(bytes.data() + 8, &version, 4);
  std::memcpy(bytes.data() + 12, &byte_order, 4);
  std::memcpy(bytes.data() + 16, &num_vertices, 8);
  std::memcpy(bytes.data() + 24, &num_adjacency, 8);
  std::memcpy(bytes.data() + 32, &section_count, 4);
  std::memcpy(bytes.data() + 40, &table_checksum, 8);
  std::memcpy(bytes.data() + 64, table, sizeof(table));
  std::memcpy(bytes.data() + 128, offsets.data(), offsets.size_bytes());
  if (!adjacency.empty()) {
    std::memcpy(bytes.data() + adjacency_pos, adjacency.data(),
                adjacency.size_bytes());
  }
  WriteBytes(path, bytes);
}

}  // namespace testing_util
}  // namespace kplex

#endif  // KPLEX_TESTS_SNAPSHOT_FILES_H_
