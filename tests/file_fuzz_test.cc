// Seeded mutation fuzzing of the files the library reads back from
// disk: `.kpx` snapshots (v1, and v2 with order, coreness and core-mask
// sections), result-store entries and store.idx. Each case edits header
// counts, section offsets, lengths and types, or payload words, then
// re-seals the checksums so that the edit reaches the structural checks
// (one case in eight keeps the stale checksums). The properties:
//   - a snapshot load returns InvalidArgument or IoError, or a graph
//     whose CSR meets the invariants the loader's ValidateCsr states
//     and whose order, coreness and masks are consistent;
//   - a store Get returns a result or a miss, and a miss on an entry
//     whose key bytes are intact is counted as corrupt;
//   - a damaged store.idx only costs a rebuild: every entry is served.
// The seed is fixed, so a failure replays; the case index is in every
// message.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "store/result_store.h"
#include "tests/snapshot_files.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace kplex {
namespace {

using testing_util::AlignTo64;
using testing_util::ReadBytes;
using testing_util::WriteBytes;
using Bytes = std::vector<unsigned char>;

constexpr uint64_t kSeed = 0x6b707866757a7a31ULL;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "kplex_file_fuzz_" + tag;
}

template <typename T>
bool Peek(const Bytes& b, uint64_t at, T& out) {
  if (at > b.size() || b.size() - at < sizeof(T)) return false;
  std::memcpy(&out, b.data() + at, sizeof(T));
  return true;
}

template <typename T>
void Poke(Bytes& b, uint64_t at, T value) {
  if (at <= b.size() && b.size() - at >= sizeof(T)) {
    std::memcpy(b.data() + at, &value, sizeof(T));
  }
}

bool InFile(const Bytes& b, uint64_t at, uint64_t bytes) {
  return at <= b.size() && bytes <= b.size() - at;
}

/// A value likely to sit on a bound: zero, a small count, `near` or
/// one off it, twice `near`, a power of two, all ones, or anything.
uint64_t Interesting(Rng& rng, uint64_t near) {
  switch (rng.NextBounded(8)) {
    case 0: return 0;
    case 1: return rng.NextBounded(4);
    case 2: return near + rng.NextBounded(3) - 1;
    case 3: return near * 2;
    case 4: return uint64_t{1} << rng.NextBounded(64);
    case 5: return ~uint64_t{0} - rng.NextBounded(2);
    case 6: return near + 64 * rng.NextBounded(4) - 128;
    default: return rng.Next();
  }
}

// ------------------------------------------------------------ snapshots

/// One payload as the file's own header or table declares it. `entry`
/// is the table position of a v2 section (0 for v1); `width` is the
/// element size.
struct Section {
  uint64_t entry = 0;
  uint64_t at = 0;
  uint64_t bytes = 0;
  uint64_t width = 4;
};

std::vector<Section> Sections(const Bytes& b) {
  std::vector<Section> out;
  uint32_t version = 0;
  Peek(b, 8, version);
  if (version == kSnapshotVersionLegacy) {
    uint64_t offsets_bytes = 0, adjacency_bytes = 0;
    Peek(b, 32, offsets_bytes);
    Peek(b, 40, adjacency_bytes);
    out.push_back({0, 64, offsets_bytes, 8});
    out.push_back({0, AlignTo64(64 + offsets_bytes), adjacency_bytes, 4});
    return out;
  }
  uint32_t count = 0;
  Peek(b, 32, count);
  for (uint64_t entry = 64; entry < 64 + 32 * uint64_t{count}; entry += 32) {
    uint32_t type = 0;
    Section s;
    s.entry = entry;
    if (!Peek(b, entry, type) || !Peek(b, entry + 8, s.at) ||
        !Peek(b, entry + 16, s.bytes)) {
      break;
    }
    s.width = type == 1 || type == 5 ? 8 : 4;  // offsets and masks: u64
    out.push_back(s);
  }
  return out;
}

/// Recomputes every checksum the file declares over whatever bytes its
/// header and table now point at.
void Reseal(Bytes& b) {
  uint32_t version = 0;
  if (!Peek(b, 8, version)) return;
  const std::vector<Section> sections = Sections(b);
  if (version == kSnapshotVersionLegacy) {
    const Section& offsets = sections[0];
    const Section& adjacency = sections[1];
    if (InFile(b, offsets.at, offsets.bytes) &&
        InFile(b, adjacency.at, adjacency.bytes)) {
      Poke(b, 48,
           Fnv1a(b.data() + adjacency.at, adjacency.bytes,
                 Fnv1a(b.data() + offsets.at, offsets.bytes)));
    }
    return;
  }
  for (const Section& s : sections) {
    if (InFile(b, s.at, s.bytes)) {
      Poke(b, s.entry + 24, Fnv1a(b.data() + s.at, s.bytes));
    }
  }
  uint32_t count = 0;
  Peek(b, 32, count);
  if (InFile(b, 64, 32 * uint64_t{count})) {
    Poke(b, 40, Fnv1a(b.data() + 64, 32 * uint64_t{count}));
  }
}

void MutateSnapshot(Bytes& b, Rng& rng) {
  uint32_t version = 0;
  uint64_t n = 0;
  Peek(b, 8, version);
  Peek(b, 16, n);
  const bool v1 = version == kSnapshotVersionLegacy;
  const std::vector<Section> sections = Sections(b);
  switch (rng.NextBounded(6)) {
    case 0: {  // a header count
      if (v1) {
        // n, 2m, offsets bytes, adjacency bytes; half the time the byte
        // counts follow the edited count, so the edit passes the
        // header's own consistency check.
        const uint64_t field = 16 + 8 * rng.NextBounded(4);
        uint64_t old = 0;
        Peek(b, field, old);
        Poke(b, field, Interesting(rng, old));
        if (rng.NextBounded(2) == 0) {
          uint64_t vertices = 0, adjacency = 0;
          Peek(b, 16, vertices);
          Peek(b, 24, adjacency);
          Poke(b, 32, (vertices + 1) * 8);
          Poke(b, 40, adjacency * 4);
        }
      } else if (rng.NextBounded(3) < 2) {  // n or 2m
        const uint64_t field = 16 + 8 * rng.NextBounded(2);
        uint64_t old = 0;
        Peek(b, field, old);
        Poke(b, field, Interesting(rng, old));
      } else {
        uint32_t count = 0;
        Peek(b, 32, count);
        Poke(b, 32, static_cast<uint32_t>(
                        rng.NextBounded(2) == 0 ? count + rng.NextBounded(3) - 1
                                                : Interesting(rng, count)));
      }
      break;
    }
    case 1: {  // a section's type, param, offset or length (v2)
      if (v1 || sections.empty()) break;
      const Section& s = sections[rng.NextBounded(sections.size())];
      const Section& other = sections[rng.NextBounded(sections.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          Poke(b, s.entry, static_cast<uint32_t>(rng.NextBounded(8)));
          break;
        case 1:
          Poke(b, s.entry + 4, static_cast<uint32_t>(Interesting(rng, n)));
          break;
        case 2:
          Poke(b, s.entry + 8,
               rng.NextBounded(2) == 0 ? other.at : Interesting(rng, s.at));
          break;
        default:
          Poke(b, s.entry + 16,
               rng.NextBounded(2) == 0 ? s.bytes + s.width *
                                             (rng.NextBounded(3) - 1)
                                       : Interesting(rng, s.bytes));
      }
      break;
    }
    case 2:
    case 3: {  // a payload word
      if (sections.empty()) break;
      const Section& s = sections[rng.NextBounded(sections.size())];
      if (!InFile(b, s.at, s.bytes) || s.bytes < s.width) break;
      const uint64_t at = s.at + s.width * rng.NextBounded(s.bytes / s.width);
      uint64_t old = 0;
      if (s.width == 8) {
        Peek(b, at, old);
      } else {
        uint32_t word = 0;
        Peek(b, at, word);
        old = word;
      }
      const uint64_t value =
          rng.NextBounded(2) == 0 ? Interesting(rng, n) : Interesting(rng, old);
      if (s.width == 8) {
        Poke(b, at, value);
      } else {
        Poke(b, at, static_cast<uint32_t>(value));
      }
      break;
    }
    case 4: {  // copy one table entry over another (v2), else a byte flip
      if (!v1 && sections.size() >= 2) {
        const Section& from = sections[rng.NextBounded(sections.size())];
        const Section& to = sections[rng.NextBounded(sections.size())];
        std::memmove(b.data() + to.entry, b.data() + from.entry, 32);
      } else if (!b.empty()) {
        b[rng.NextBounded(b.size())] ^= static_cast<unsigned char>(
            1u << rng.NextBounded(8));
      }
      break;
    }
    default:  // truncate, or append zeros
      if (rng.NextBounded(2) == 0) {
        b.resize(rng.NextBounded(b.size() + 1));
      } else {
        b.resize(b.size() + rng.NextBounded(129), 0);
      }
  }
}

/// The loader's contract on one file: a structured refusal, or a graph
/// and precompute that meet every invariant the loader states.
void ExpectRefusedOrValid(const std::string& path, uint64_t c) {
  auto loaded = LoadSnapshotFull(path);
  if (!loaded.ok()) {
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kIoError)
        << "case " << c << ": " << loaded.status().ToString();
    return;
  }
  const Graph& g = loaded->graph;
  const uint64_t n = g.NumVertices();
  const auto offsets = g.RawOffsets();
  const auto adjacency = g.RawAdjacency();
  if (n > 0) {
    ASSERT_EQ(offsets.size(), n + 1) << "case " << c;
    ASSERT_EQ(offsets[0], 0u) << "case " << c;
    ASSERT_EQ(offsets[n], adjacency.size()) << "case " << c;
    for (uint64_t v = 0; v < n; ++v) {
      ASSERT_LE(offsets[v], offsets[v + 1]) << "case " << c;
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        ASSERT_LT(adjacency[i], n) << "case " << c;
        ASSERT_NE(adjacency[i], v) << "case " << c;
        if (i > offsets[v]) {
          ASSERT_LT(adjacency[i - 1], adjacency[i]) << "case " << c;
        }
      }
    }
  }
  const GraphPrecompute& pre = loaded->precompute;
  if (pre.has_order()) {
    ASSERT_EQ(pre.order.size(), n) << "case " << c;
    std::vector<char> seen(n, 0);
    for (VertexId v : pre.order) {
      ASSERT_LT(v, n) << "case " << c;
      ASSERT_FALSE(seen[v]) << "case " << c;
      seen[v] = 1;
    }
  }
  if (pre.has_coreness()) {
    ASSERT_EQ(pre.coreness.size(), n) << "case " << c;
    for (const auto& [level, mask] : pre.core_masks) {
      const std::vector<uint64_t> expected = PackCoreMask(pre.coreness, level);
      ASSERT_TRUE(std::equal(mask.begin(), mask.end(), expected.begin(),
                             expected.end()))
          << "case " << c << ": mask " << level;
    }
  }
}

TEST(FileFuzz, MutatedSnapshotsAreRefusedOrLoadValid) {
  const std::string path = TempPath("snapshot.kpx");
  std::vector<Bytes> bases;
  auto add_v2 = [&](const Graph& g, std::vector<uint32_t> levels,
                    bool precompute) {
    SnapshotWriteOptions options;
    options.include_precompute = precompute;
    options.core_mask_levels = std::move(levels);
    ASSERT_TRUE(SaveSnapshot(g, path, options).ok());
    bases.push_back(ReadBytes(path));
  };
  const Graph er = GenerateErdosRenyi(40, 0.15, 3);
  const Graph sparse = GraphBuilder::FromEdges(9, {{1, 3}, {3, 5}, {1, 5}});
  add_v2(er, {2, 3}, true);
  add_v2(GenerateBarabasiAlbert(30, 3, 5), {}, false);
  add_v2(sparse, {2}, true);
  bases.push_back(testing_util::V1SnapshotBytes(er));
  bases.push_back(testing_util::V1SnapshotBytes(sparse));
  for (const Bytes& base : bases) {  // every base loads untouched
    WriteBytes(path, base);
    ASSERT_TRUE(LoadSnapshotFull(path).ok());
  }

  Rng rng(kSeed);
  constexpr uint64_t kCases = 4000;
  for (uint64_t c = 0; c < kCases; ++c) {
    Bytes bytes = bases[rng.NextBounded(bases.size())];
    for (uint64_t edits = 1 + rng.NextBounded(3); edits > 0; --edits) {
      MutateSnapshot(bytes, rng);
    }
    if (rng.NextBounded(8) != 0) Reseal(bytes);
    WriteBytes(path, bytes);
    ExpectRefusedOrValid(path, c);
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- store

StoreKey FuzzKey() {
  StoreKey key;
  key.graph_hash = 0x0badc0ffee15f00dULL;
  key.signature = "g|k=2|q=4|algo=ours|max=0|pre=none|bodies=on";
  return key;
}

StoredResult FuzzResult() {
  StoredResult result;
  result.num_plexes = 40;
  result.max_plex_size = 7;
  result.fingerprint = 0x1234;
  result.fingerprint_xor = 0x5678;
  result.total_seeds = 30;
  result.compute_seconds = 0.01;
  std::vector<std::vector<VertexId>> bodies;
  for (VertexId i = 0; i < 40; ++i) {
    bodies.push_back({i, i + 1, i + 300, i + 70000});
  }
  result.plexes =
      std::make_shared<const std::vector<std::vector<VertexId>>>(bodies);
  return result;
}

std::unique_ptr<ResultStore> OpenStore(const std::string& dir) {
  StoreOptions options;
  options.directory = dir;
  auto store = ResultStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

constexpr uint64_t kEntryHeaderBytes = 32;

/// Edits the payload (the bytes after the 32-byte header) and returns
/// the first offset it changed, then re-seals the header's length and
/// checksum over the new payload.
uint64_t MutateEntry(Bytes& b, Rng& rng) {
  const uint64_t payload = b.size() - kEntryHeaderBytes;
  uint64_t at = kEntryHeaderBytes + rng.NextBounded(payload);
  switch (rng.NextBounded(6)) {
    case 0:  // the signature length
      at = kEntryHeaderBytes + 8;
      Poke(b, at, static_cast<uint32_t>(Interesting(rng, 45)));
      break;
    case 1:  // a word
      Poke(b, at, static_cast<uint32_t>(Interesting(rng, 40)));
      break;
    case 2:  // a varint byte: a continuation, a terminator, or a top byte
      b[at] = static_cast<unsigned char>(
          rng.NextBounded(3) == 0 ? 0xff : rng.NextBounded(256));
      break;
    case 3:  // insert bytes
      b.insert(b.begin() + at, 1 + rng.NextBounded(8),
               static_cast<unsigned char>(rng.NextBounded(256)));
      break;
    case 4:  // delete bytes
      b.erase(b.begin() + at,
              b.begin() + std::min<uint64_t>(b.size(), at + 1 +
                                                           rng.NextBounded(8)));
      break;
    default:  // truncate
      b.resize(at);
  }
  Poke(b, 16, static_cast<uint64_t>(b.size() - kEntryHeaderBytes));
  Poke(b, 24, Fnv1a(b.data() + kEntryHeaderBytes,
                    b.size() - kEntryHeaderBytes));
  return at;
}

TEST(FileFuzz, MutatedStoreEntriesHitOrCountAsCorrupt) {
  const std::string dir = TempPath("entries");
  std::filesystem::remove_all(dir);
  auto store = OpenStore(dir);
  ASSERT_NE(store, nullptr);
  const StoreKey key = FuzzKey();
  ASSERT_TRUE(store->Put(key, FuzzResult()).ok());
  const std::string entry_path =
      dir + "/" + ResultStore::EntryFileName(ResultStore::KeyHash(key));
  const Bytes base = ReadBytes(entry_path);
  // Graph hash, signature length and signature: an edit there may leave
  // a valid entry for another key, which is a plain miss.
  const uint64_t key_end = kEntryHeaderBytes + 8 + 4 + key.signature.size();

  Rng rng(kSeed);
  constexpr uint64_t kCases = 600;
  for (uint64_t c = 0; c < kCases; ++c) {
    Bytes bytes = base;
    const uint64_t edited_from = MutateEntry(bytes, rng);
    WriteBytes(entry_path, bytes);
    const uint64_t corrupt_before = store->stats().corrupt_entries;
    const auto got = store->Get(key);
    if (!got.has_value() && edited_from >= key_end) {
      EXPECT_EQ(store->stats().corrupt_entries, corrupt_before + 1)
          << "case " << c << ": a miss on an intact key was not counted";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FileFuzz, MutatedStoreIndexOnlyCostsARebuild) {
  const std::string dir = TempPath("index");
  std::filesystem::remove_all(dir);
  std::vector<StoreKey> keys;
  {
    auto store = OpenStore(dir);
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 3; ++i) {
      StoreKey key = FuzzKey();
      key.signature += "|n=" + std::to_string(i);
      ASSERT_TRUE(store->Put(key, FuzzResult()).ok());
      keys.push_back(key);
    }
  }
  const std::string index_path = dir + "/store.idx";
  const Bytes base = ReadBytes(index_path);
  constexpr uint64_t kHeaderBytes = 40, kRowBytes = 24;

  Rng rng(kSeed);
  constexpr uint64_t kCases = 200;
  for (uint64_t c = 0; c < kCases; ++c) {
    Bytes bytes = base;
    const uint64_t rows = (bytes.size() - kHeaderBytes) / kRowBytes;
    switch (rng.NextBounded(4)) {
      case 0:  // entry count or access clock
        Poke(bytes, 16 + 8 * rng.NextBounded(2), Interesting(rng, rows));
        break;
      case 1: {  // a row's key hash, bytes or access stamp
        const uint64_t at = kHeaderBytes + kRowBytes * rng.NextBounded(rows) +
                            8 * rng.NextBounded(3);
        uint64_t old = 0;
        Peek(bytes, at, old);
        Poke(bytes, at, Interesting(rng, old));
        break;
      }
      case 2:  // a row more or fewer, with the count kept in step
        bytes.resize(rng.NextBounded(2) == 0 ? bytes.size() - kRowBytes
                                             : bytes.size() + kRowBytes);
        Poke(bytes, 16, (bytes.size() - kHeaderBytes) / kRowBytes);
        break;
      default:  // truncate
        bytes.resize(rng.NextBounded(bytes.size() + 1));
    }
    if (bytes.size() >= kHeaderBytes) {
      Poke(bytes, 32, Fnv1a(bytes.data() + kHeaderBytes,
                            bytes.size() - kHeaderBytes));
    }
    WriteBytes(index_path, bytes);
    auto store = OpenStore(dir);
    ASSERT_NE(store, nullptr) << "case " << c;
    EXPECT_EQ(store->stats().entries, keys.size()) << "case " << c;
    for (const StoreKey& key : keys) {
      EXPECT_TRUE(store->Get(key).has_value()) << "case " << c;
    }
    EXPECT_EQ(store->stats().corrupt_entries, 0u) << "case " << c;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kplex
