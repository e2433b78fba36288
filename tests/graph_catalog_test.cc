// Unit tests for the GraphCatalog: registration, lazy materialization,
// LRU eviction under a memory budget, and pinned-entry semantics.

#include "service/graph_catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "util/mmap_file.h"

namespace kplex {
namespace {

std::string TempPath(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "kplex_catalog_test_" + tag + "_" +
         std::to_string(counter++);
}

CatalogEntryInfo InfoOf(const GraphCatalog& catalog,
                        const std::string& name) {
  for (const auto& info : catalog.Entries()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "no entry named " << name;
  return {};
}

TEST(GraphCatalog, LazyLoadFromEdgeListFile) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  std::string path = TempPath("lazy");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  EXPECT_FALSE(InfoOf(catalog, "g").resident);  // not touched yet

  auto loaded = catalog.Get("g");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->NumEdges(), 3u);
  EXPECT_TRUE(InfoOf(catalog, "g").resident);
  EXPECT_EQ(InfoOf(catalog, "g").loads, 1u);

  // A second Get serves the resident copy (no reload).
  ASSERT_TRUE(catalog.Get("g").ok());
  EXPECT_EQ(InfoOf(catalog, "g").loads, 1u);
  std::remove(path.c_str());
}

TEST(GraphCatalog, LoadsSnapshotsByMagic) {
  Graph g = GenerateErdosRenyi(100, 0.1, 1);
  std::string path = TempPath("snap");
  ASSERT_TRUE(SaveSnapshot(g, path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  auto loaded = catalog.Get("g");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumEdges(), g.NumEdges());
  std::remove(path.c_str());
}

TEST(GraphCatalog, DuplicateAndUnknownNames) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", "/does/not/matter").ok());
  EXPECT_EQ(catalog.RegisterFile("g", "/other").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.Evict("missing").code(), StatusCode::kNotFound);
  // The bogus path only fails at materialization time.
  EXPECT_EQ(catalog.Get("g").status().code(), StatusCode::kIoError);
}

TEST(GraphCatalog, EvictAndReload) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {1, 2}});
  std::string path = TempPath("evict");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  ASSERT_TRUE(catalog.Get("g").ok());
  EXPECT_GT(catalog.ResidentBytes(), 0u);

  ASSERT_TRUE(catalog.Evict("g").ok());
  EXPECT_FALSE(InfoOf(catalog, "g").resident);
  EXPECT_EQ(catalog.ResidentBytes(), 0u);

  auto reloaded = catalog.Get("g");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)->NumEdges(), 2u);
  EXPECT_EQ(InfoOf(catalog, "g").loads, 2u);
  std::remove(path.c_str());
}

TEST(GraphCatalog, LruEvictionUnderMemoryBudget) {
  // Three ~equal graphs under a budget that fits roughly one of them:
  // the least recently used entries must be dropped. Edge-list sources
  // parse into owned heap (v2 snapshots would mmap and be budget-exempt
  // — see MappedSnapshotsAreBudgetExempt).
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    Graph g = GenerateErdosRenyi(400, 0.05, 10 + i);
    std::string path = TempPath("lru" + std::to_string(i));
    EXPECT_TRUE(SaveEdgeList(g, path).ok());
    paths.push_back(path);
  }
  const std::size_t one_graph_bytes =
      LoadEdgeList(paths[0])->MemoryBytes();

  GraphCatalog catalog(one_graph_bytes + one_graph_bytes / 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(catalog
                    .RegisterFile("g" + std::to_string(i), paths[i])
                    .ok());
  }
  ASSERT_TRUE(catalog.Get("g0").ok());
  ASSERT_TRUE(catalog.Get("g1").ok());  // evicts g0 (over budget)
  EXPECT_FALSE(InfoOf(catalog, "g0").resident);
  EXPECT_TRUE(InfoOf(catalog, "g1").resident);

  ASSERT_TRUE(catalog.Get("g2").ok());  // evicts g1
  EXPECT_FALSE(InfoOf(catalog, "g1").resident);
  EXPECT_TRUE(InfoOf(catalog, "g2").resident);
  EXPECT_LE(catalog.ResidentBytes(), one_graph_bytes + one_graph_bytes / 2);

  // Touch order matters: reload g0, then g1; g2 becomes the LRU victim.
  ASSERT_TRUE(catalog.Get("g0").ok());
  ASSERT_TRUE(catalog.Get("g1").ok());
  EXPECT_FALSE(InfoOf(catalog, "g2").resident);

  // Eviction is transparent: an evicted graph still answers Get.
  auto g2 = catalog.Get("g2");
  ASSERT_TRUE(g2.ok());
  EXPECT_GT((*g2)->NumEdges(), 0u);
  for (const auto& path : paths) std::remove(path.c_str());
}

TEST(GraphCatalog, MappedSnapshotsAreBudgetExempt) {
  // v2 snapshots are mmap'ed: their CSR bytes are page cache, not
  // private heap, so an absurdly small owned-bytes budget still admits
  // several of them side by side.
  if (!MappedFile::Supported()) GTEST_SKIP() << "no mmap on this platform";
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    Graph g = GenerateErdosRenyi(400, 0.05, 20 + i);
    std::string path = TempPath("mapped" + std::to_string(i));
    EXPECT_TRUE(SaveSnapshot(g, path).ok());
    paths.push_back(path);
  }

  GraphCatalog catalog(1);  // 1 byte of owned budget
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.RegisterFile("g" + std::to_string(i), paths[i]).ok());
    ASSERT_TRUE(catalog.Get("g" + std::to_string(i)).ok());
  }
  // All three stayed resident: mapped bytes are budget-exempt.
  for (int i = 0; i < 3; ++i) {
    const CatalogEntryInfo info = InfoOf(catalog, "g" + std::to_string(i));
    EXPECT_TRUE(info.resident);
    EXPECT_TRUE(info.mapped);
    EXPECT_GT(info.mapped_bytes, 0u);
  }
  EXPECT_GT(catalog.MappedResidentBytes(), 0u);

  // Evicting still unmaps and clears the accounting.
  ASSERT_TRUE(catalog.Evict("g0").ok());
  EXPECT_EQ(InfoOf(catalog, "g0").mapped_bytes, 0u);
  for (const auto& path : paths) std::remove(path.c_str());
}

TEST(GraphCatalog, PrecomputeSectionsFlowThroughGetFull) {
  Graph g = GenerateErdosRenyi(120, 0.08, 3);
  std::string path = TempPath("pre");
  SnapshotWriteOptions options;
  options.include_precompute = true;
  options.core_mask_levels = {2};
  ASSERT_TRUE(SaveSnapshot(g, path, options).ok());

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  // Tag is unknown until the first materialization, then sticky.
  EXPECT_EQ(*catalog.PrecomputeTag("g"), "unknown");
  auto full = catalog.GetFull("g");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_NE(full->precompute, nullptr);
  EXPECT_TRUE(full->precompute->has_order());
  EXPECT_TRUE(full->precompute->has_coreness());
  EXPECT_FALSE(full->precompute->MaskFor(2).empty());
  EXPECT_EQ(*catalog.PrecomputeTag("g"), "order+core+masks");

  ASSERT_TRUE(catalog.Evict("g").ok());
  EXPECT_EQ(*catalog.PrecomputeTag("g"), "order+core+masks");  // sticky

  // A plain v2 snapshot (no sections) reports none.
  std::string plain = TempPath("plain");
  ASSERT_TRUE(SaveSnapshot(g, plain).ok());
  ASSERT_TRUE(catalog.RegisterFile("p", plain).ok());
  ASSERT_TRUE(catalog.Get("p").ok());
  auto plain_full = catalog.GetFull("p");
  ASSERT_TRUE(plain_full.ok());
  EXPECT_EQ(plain_full->precompute, nullptr);
  EXPECT_EQ(*catalog.PrecomputeTag("p"), "none");
  std::remove(path.c_str());
  std::remove(plain.c_str());
}

TEST(GraphCatalog, PinnedGraphsAreNeverEvicted) {
  GraphCatalog catalog(1);  // absurdly small budget
  ASSERT_TRUE(catalog
                  .RegisterGraph("pinned", GraphBuilder::FromEdges(
                                               3, {{0, 1}, {1, 2}}))
                  .ok());
  auto got = catalog.Get("pinned");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(InfoOf(catalog, "pinned").resident);
  EXPECT_EQ(catalog.Evict("pinned").code(), StatusCode::kFailedPrecondition);
}

TEST(GraphCatalog, SharedPtrKeepsEvictedGraphAlive) {
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {2, 3}});
  std::string path = TempPath("alive");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  auto held = catalog.Get("g");
  ASSERT_TRUE(held.ok());
  std::shared_ptr<const Graph> graph = *held;
  ASSERT_TRUE(catalog.Evict("g").ok());
  // The catalog dropped its reference but ours still works.
  EXPECT_EQ(graph->NumEdges(), 2u);
  std::remove(path.c_str());
}

TEST(GraphCatalog, ConcurrentGetsMaterializeExactlyOnce) {
  // Eight threads race the first Get of a cold entry: the per-entry
  // loading latch must collapse them into a single materialization that
  // everyone shares (same Graph instance, loads == 1).
  Graph g = GenerateErdosRenyi(200, 0.1, 7);
  std::string path = TempPath("race");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Graph>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto loaded = catalog.Get("g");
      if (loaded.ok()) seen[i] = *loaded;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(seen[i], nullptr);
    EXPECT_EQ(seen[i].get(), seen[0].get());  // one shared instance
  }
  EXPECT_EQ(InfoOf(catalog, "g").loads, 1u);
  std::remove(path.c_str());
}

TEST(GraphCatalog, ConcurrentGetEvictUnregisterStress) {
  // Gets, evictions and re-registrations interleave freely; nothing may
  // crash, and every successful Get must return a usable pinned graph.
  Graph g = GenerateErdosRenyi(150, 0.1, 9);
  std::string path = TempPath("stress");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.RegisterFile("g", path).ok());
  const std::size_t expected_edges = g.NumEdges();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> successful_gets{0};
  std::vector<std::thread> getters;
  for (int i = 0; i < 4; ++i) {
    getters.emplace_back([&] {
      while (!stop.load()) {
        auto loaded = catalog.Get("g");
        if (loaded.ok()) {
          // The pin keeps the graph valid even if evicted right now.
          EXPECT_EQ((*loaded)->NumEdges(), expected_edges);
          successful_gets.fetch_add(1);
        }
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load()) {
      (void)catalog.Evict("g");
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& thread : getters) thread.join();
  evictor.join();
  EXPECT_GT(successful_gets.load(), 0u);
  std::remove(path.c_str());
}

TEST(GraphCatalog, SaveSnapshotForRoundTrips) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterGraph("g", GenerateErdosRenyi(50, 0.2, 2))
                  .ok());
  std::string path = TempPath("save");
  ASSERT_TRUE(catalog.SaveSnapshotFor("g", path).ok());
  auto loaded = LoadSnapshotFull(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), (*catalog.Get("g"))->NumEdges());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kplex
