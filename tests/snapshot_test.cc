// Unit tests for the binary CSR snapshot format: round-trips, the
// auto-detecting loader, v1 files (written here, since the library
// writes only v2), and rejection of truncated/corrupted/alien files.

#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "tests/snapshot_files.h"
#include "util/fnv1a.h"
#include "util/mmap_file.h"

namespace kplex {
namespace {

using testing_util::WriteV1Snapshot;
using testing_util::WriteV2Snapshot;

std::string TempPath(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "kplex_snapshot_test_" + tag + "_" +
         std::to_string(counter++);
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.Edges(), b.Edges());
  EXPECT_EQ(a.MaxDegree(), b.MaxDegree());
}

TEST(Snapshot, RoundTripSmallGraph) {
  Graph g = GraphBuilder::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                        {4, 0}, {0, 2}});
  std::string path = TempPath("small");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, loaded->graph);
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripGeneratedGraph) {
  Graph g = GenerateBarabasiAlbert(2000, 8, 11);
  std::string path = TempPath("generated");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, loaded->graph);
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripEmptyGraph) {
  Graph g;
  std::string path = TempPath("empty");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripIsolatedVertices) {
  // Vertices with empty adjacency must survive (an edge-list round trip
  // would lose them; the snapshot must not).
  Graph g = GraphBuilder::FromEdges(6, {{1, 3}});
  std::string path = TempPath("isolated");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumVertices(), 6u);
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsIoError) {
  auto loaded = LoadSnapshotFull("/nonexistent/dir/graph.kpx");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(Snapshot, EdgeListFileIsRejected) {
  std::string path = TempPath("edgelist");
  {
    std::ofstream out(path);
    out << "0 1\n1 2\n";
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, TruncatedFileIsRejected) {
  Graph g = GenerateErdosRenyi(200, 0.05, 3);
  std::string path = TempPath("truncated");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  // Chop the file to half its size (keeps the header, loses adjacency).
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptedHeaderIsRejected) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  std::string path = TempPath("badheader");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  {
    // Flip a byte inside the vertex-count field.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptedPayloadFailsChecksum) {
  Graph g = GenerateErdosRenyi(100, 0.1, 5);
  std::string path = TempPath("badpayload");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  {
    // Flip one adjacency byte near the end of the file; the header stays
    // self-consistent so only the checksum can catch this.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekg(static_cast<std::streamoff>(size) - 3);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size) - 3);
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(Snapshot, HugeDeclaredCountsAreRejectedWithoutAllocating) {
  // A v1 header claiming 2^60 adjacency entries must come back as
  // InvalidArgument (the file is obviously shorter), not read past the
  // end of the file. Pinned to v1: the fields poked below are
  // legacy-header offsets.
  Graph g = GraphBuilder::FromEdges(3, {{0, 1}, {1, 2}});
  std::string path = TempPath("huge");
  WriteV1Snapshot(path, g);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t num_adjacency = uint64_t{1} << 60;
    const uint64_t adjacency_bytes = num_adjacency * sizeof(VertexId);
    f.seekp(24);  // num_adjacency field
    f.write(reinterpret_cast<const char*>(&num_adjacency), 8);
    f.seekp(40);  // adjacency_bytes field
    f.write(reinterpret_cast<const char*>(&adjacency_bytes), 8);
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Snapshot, HandcraftedUnsortedRowIsRejected) {
  // A file with a *valid* checksum but an adjacency row violating the
  // sorted-simple-graph invariant (duplicate neighbor) must not load:
  // Graph::HasEdge binary-searches rows and would silently misbehave.
  const uint64_t offsets[3] = {0, 2, 2};
  const VertexId adjacency[2] = {1, 1};  // duplicate in vertex 0's row
  std::string path = TempPath("handcrafted");
  WriteV1Snapshot(path, offsets, adjacency);
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("adjacency row"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// Offsets {0, 1000, 2, 2, 2} bracket a two-entry adjacency array, yet
// row 0 claims 1000 entries. The loader must refuse the offsets before
// it reads the row, or it walks past the adjacency array.
const uint64_t kOffsetPastAdjacency[5] = {0, 1000, 2, 2, 2};
const VertexId kTwoNeighbors[2] = {1, 2};

TEST(Snapshot, InteriorOffsetPastTheAdjacencyIsRejected) {
  std::string path = TempPath("v1offset");
  WriteV1Snapshot(path, kOffsetPastAdjacency, kTwoNeighbors);
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("out-of-range snapshot offsets"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// v1 <-> v2 compatibility and the v2 section machinery.

TEST(SnapshotV2, InteriorOffsetPastTheAdjacencyIsRejected) {
  std::string path = TempPath("v2offset");
  WriteV2Snapshot(path, kOffsetPastAdjacency, kTwoNeighbors, 2);
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("out-of-range snapshot offsets"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotV2, V1FileLoadsThroughLegacyPath) {
  // A pre-v2 snapshot (as every file written before the v2 format)
  // must keep loading, zero-copy like v2 and without precompute.
  Graph g = GenerateBarabasiAlbert(500, 6, 17);
  std::string path = TempPath("v1compat");
  WriteV1Snapshot(path, g);

  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, kSnapshotVersionLegacy);
  EXPECT_TRUE(loaded->precompute.empty());
  ExpectSameGraph(g, loaded->graph);
  if (MappedFile::Supported()) {
    EXPECT_TRUE(loaded->mapped);
    EXPECT_TRUE(loaded->graph.IsMapped());
    EXPECT_GT(loaded->graph.MappedBytes(), 0u);
    EXPECT_EQ(loaded->graph.MemoryBytes(), 0u);
  }
  std::remove(path.c_str());
}

TEST(SnapshotV2, DefaultWriteIsZeroCopyV2) {
  Graph g = GenerateBarabasiAlbert(800, 7, 23);
  std::string path = TempPath("v2map");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());

  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, kSnapshotVersion);
  ExpectSameGraph(g, loaded->graph);
  EXPECT_TRUE(loaded->precompute.empty());  // optional sections absent: fine
  if (MappedFile::Supported()) {
    EXPECT_TRUE(loaded->mapped);
    EXPECT_TRUE(loaded->graph.IsMapped());
    EXPECT_GT(loaded->graph.MappedBytes(), 0u);
    // The CSR views cost no private heap beyond bookkeeping.
    EXPECT_EQ(loaded->graph.MemoryBytes(), 0u);
  }
  // The graph must outlive the mapping handle scope: copy and move it.
  Graph copied = loaded->graph;
  Graph moved = std::move(loaded->graph);
  ExpectSameGraph(g, copied);
  ExpectSameGraph(g, moved);
  std::remove(path.c_str());
}

TEST(SnapshotV2, PrecomputeSectionsRoundTrip) {
  Graph g = GenerateErdosRenyi(300, 0.04, 9);
  std::string path = TempPath("v2pre");
  SnapshotWriteOptions options;
  options.include_precompute = true;
  options.core_mask_levels = {1, 3};
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());

  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const DegeneracyResult expected = ComputeDegeneracy(g);
  EXPECT_TRUE(std::ranges::equal(loaded->precompute.order, expected.order));
  EXPECT_TRUE(
      std::ranges::equal(loaded->precompute.coreness, expected.coreness));
  EXPECT_EQ(loaded->precompute.degeneracy, expected.degeneracy);
  ASSERT_FALSE(loaded->precompute.MaskFor(3).empty());
  EXPECT_TRUE(loaded->precompute.MaskFor(2).empty());  // not stored
  EXPECT_TRUE(std::ranges::equal(loaded->precompute.MaskFor(3),
                                 PackCoreMask(expected.coreness, 3)));

  // v2 sections are served zero-copy: views into the snapshot buffer,
  // no private heap beyond bookkeeping, and — when the platform maps —
  // counted under the graph's whole-file MappedBytes.
  EXPECT_EQ(loaded->precompute.MemoryBytes(), 0u);
  EXPECT_GT(loaded->precompute.SectionBytes(), 0u);
  if (MappedFile::Supported()) {
    EXPECT_TRUE(loaded->precompute.mapped());
    EXPECT_GE(loaded->graph.MappedBytes(),
              loaded->precompute.SectionBytes());
  }

  // The sections must stay readable after the graph (and its share of
  // the mapping) is gone: the precompute holds its own backing handle.
  const std::vector<VertexId> order_before(loaded->precompute.order.begin(),
                                           loaded->precompute.order.end());
  loaded->graph = Graph();
  EXPECT_TRUE(std::ranges::equal(loaded->precompute.order, order_before));
  std::remove(path.c_str());
}

TEST(SnapshotV2, TruncationIsRejected) {
  Graph g = GenerateErdosRenyi(200, 0.05, 4);
  std::string path = TempPath("v2trunc");
  SnapshotWriteOptions options;
  options.include_precompute = true;
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Chop at several depths: mid-header, mid-table, mid-section.
  for (std::size_t keep : {40ul, 100ul, bytes.size() / 2}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    auto loaded = LoadSnapshotFull(path);
    EXPECT_FALSE(loaded.ok()) << "keep=" << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(SnapshotV2, MappedPayloadCorruptionFailsSectionChecksum) {
  Graph g = GenerateErdosRenyi(150, 0.07, 6);
  std::string path = TempPath("v2corrupt");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  {
    // Flip an adjacency byte near the end (0xff: offset bytes are
    // mostly zero already). Header and table stay intact, so only the
    // per-section checksum can catch this.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) - 5);
    char byte = static_cast<char>(0xff);
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotV2, TableCorruptionFailsTableChecksum) {
  Graph g = GraphBuilder::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}});
  std::string path = TempPath("v2table");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  {
    // Byte 64 is the first section-table entry's type field.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotV2, EmptyAndIsolatedGraphsRoundTrip) {
  {
    Graph g;
    std::string path = TempPath("v2empty");
    ASSERT_TRUE(SaveSnapshot(g, path).ok());
    auto loaded = LoadSnapshotFull(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->graph.NumVertices(), 0u);
    std::remove(path.c_str());
  }
  {
    Graph g = GraphBuilder::FromEdges(6, {{1, 3}});
    std::string path = TempPath("v2isolated");
    SnapshotWriteOptions options;
    options.include_precompute = true;
    ASSERT_TRUE(SaveSnapshot(g, path, options).ok());
    auto loaded = LoadSnapshotFull(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->graph.NumVertices(), 6u);
    EXPECT_EQ(loaded->graph.NumEdges(), 1u);
    EXPECT_EQ(loaded->precompute.order.size(), 6u);
    std::remove(path.c_str());
  }
}

// Rewrites the order section's type id to an unknown value, fixing up
// both checksums, to prove readers skip sections from newer writers
// instead of failing (forward compatibility).
TEST(SnapshotV2, UnknownSectionTypesAreSkipped) {
  Graph g = GenerateErdosRenyi(80, 0.1, 8);
  std::string path = TempPath("v2unknown");
  SnapshotWriteOptions options;
  options.include_precompute = true;
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());

  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 32, sizeof(section_count));
  ASSERT_EQ(section_count, 4u);  // offsets, adjacency, order, coreness

  // Entry layout: type u32, param u32, offset u64, length u64,
  // checksum u64 (32 bytes each, table at offset 64). Entry 2 is the
  // order section; give it a type no reader knows.
  const std::size_t entry2 = 64 + 2 * 32;
  const uint32_t unknown_type = 0x7777u;
  std::memcpy(bytes.data() + entry2, &unknown_type, sizeof(unknown_type));
  const uint64_t table_checksum =
      Fnv1a(bytes.data() + 64, section_count * 32);
  std::memcpy(bytes.data() + 40, &table_checksum, sizeof(table_checksum));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, loaded->graph);
  EXPECT_FALSE(loaded->precompute.has_order());   // skipped
  EXPECT_TRUE(loaded->precompute.has_coreness()); // still decoded
  std::remove(path.c_str());
}

TEST(SnapshotV2, NonPermutationOrderSectionIsRejected) {
  Graph g = GenerateErdosRenyi(64, 0.1, 12);
  std::string path = TempPath("v2badorder");
  SnapshotWriteOptions options;
  options.include_precompute = true;
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());

  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  // Entry 2 (order): read its offset/length, duplicate the first id into
  // the second slot, and re-checksum the section so only the semantic
  // permutation check can reject it.
  const std::size_t entry2 = 64 + 2 * 32;
  uint64_t offset = 0, length = 0;
  std::memcpy(&offset, bytes.data() + entry2 + 8, sizeof(offset));
  std::memcpy(&length, bytes.data() + entry2 + 16, sizeof(length));
  std::memcpy(bytes.data() + offset + 4, bytes.data() + offset, 4);
  const uint64_t checksum = Fnv1a(bytes.data() + offset, length);
  std::memcpy(bytes.data() + entry2 + 24, &checksum, sizeof(checksum));
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 32, sizeof(section_count));
  const uint64_t table_checksum =
      Fnv1a(bytes.data() + 64, section_count * 32);
  std::memcpy(bytes.data() + 40, &table_checksum, sizeof(table_checksum));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("permutation"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// Handcrafts a v2 file whose header claims 2^62 adjacency entries
// paired with a zero-length adjacency section: 2^62 * 4 wraps to 0 mod
// 2^64, so without a file-size-relative bound the section length check
// would pass and CSR validation would walk 2^62 phantom entries off the
// end of the mapping. All checksums are made valid — only the header
// bound can reject this.
TEST(SnapshotV2, OverflowingAdjacencyClaimIsRejected) {
  const uint64_t num_adjacency = uint64_t{1} << 62;
  const uint64_t offsets[2] = {0, num_adjacency};  // n = 1
  std::string path = TempPath("v2overflow");
  WriteV2Snapshot(path, offsets, {}, num_adjacency);  // empty adjacency
  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotV2, MaskContradictingCorenessIsRejected) {
  // A checksum-valid mask that disagrees with the coreness section
  // would silently drop vertices from the survivor graph; the loader
  // must reject the contradiction instead.
  Graph g = GenerateErdosRenyi(96, 0.1, 21);
  std::string path = TempPath("v2badmask");
  SnapshotWriteOptions options;
  options.core_mask_levels = {2};
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());

  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  // Entry 4 is the mask (offsets, adjacency, order, coreness, mask).
  const std::size_t entry4 = 64 + 4 * 32;
  uint32_t type = 0;
  std::memcpy(&type, bytes.data() + entry4, sizeof(type));
  ASSERT_EQ(type, 5u);  // kSectionCoreMask
  uint64_t offset = 0, length = 0;
  std::memcpy(&offset, bytes.data() + entry4 + 8, sizeof(offset));
  std::memcpy(&length, bytes.data() + entry4 + 16, sizeof(length));
  bytes[offset] ^= 1;  // flip vertex 0's membership bit
  const uint64_t checksum = Fnv1a(bytes.data() + offset, length);
  std::memcpy(bytes.data() + entry4 + 24, &checksum, sizeof(checksum));
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 32, sizeof(section_count));
  const uint64_t table_checksum =
      Fnv1a(bytes.data() + 64, section_count * 32);
  std::memcpy(bytes.data() + 40, &table_checksum, sizeof(table_checksum));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadSnapshotFull(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("contradicts"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotV2, InPlaceReencodeOfAMappedSnapshotIsSafe) {
  // The "upgrade my snapshot with precompute sections" workflow: load a
  // v2 snapshot (zero-copy views into the mapping of `path`) and save
  // it back onto the same path. The writer must not truncate the
  // mapped file in place (SIGBUS on the pages being serialized) — it
  // writes a sibling temp file and renames over the target.
  Graph g = GenerateErdosRenyi(250, 0.05, 14);
  std::string path = TempPath("inplace");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  auto mapped = LoadSnapshotFull(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  SnapshotWriteOptions options;
  options.include_precompute = true;
  ASSERT_TRUE(SaveSnapshot(mapped->graph, path, options).ok());
  // The still-held old mapping stays readable, and the new file
  // carries the sections.
  ExpectSameGraph(g, mapped->graph);
  auto upgraded = LoadSnapshotFull(path);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  ExpectSameGraph(g, upgraded->graph);
  EXPECT_TRUE(upgraded->precompute.has_order());
  std::remove(path.c_str());
}

TEST(Snapshot, AutoLoaderDispatchesByMagic) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  std::string snapshot_path = TempPath("auto_snap");
  std::string edges_path = TempPath("auto_edges");
  ASSERT_TRUE(SaveSnapshot(g, snapshot_path).ok());
  ASSERT_TRUE(SaveEdgeList(g, edges_path).ok());
  EXPECT_TRUE(LooksLikeSnapshot(snapshot_path));
  EXPECT_FALSE(LooksLikeSnapshot(edges_path));
  auto from_snapshot = LoadGraphAutoFull(snapshot_path);
  auto from_edges = LoadGraphAutoFull(edges_path);
  ASSERT_TRUE(from_snapshot.ok());
  ASSERT_TRUE(from_edges.ok());
  EXPECT_EQ(from_snapshot->graph.Edges(), from_edges->graph.Edges());
  std::remove(snapshot_path.c_str());
  std::remove(edges_path.c_str());
}

}  // namespace
}  // namespace kplex
