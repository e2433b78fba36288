// Tests for the remaining utility modules: timers, logging, memory
// probes, the file reader, FNV-1a, JSON escaping, graph statistics, the
// table printer and the bench harness.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "baselines/fp.h"
#include "bench_common/harness.h"
#include "bench_common/table_printer.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "util/fnv1a.h"
#include "util/json_escape.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/mmap_file.h"
#include "util/timer.h"

namespace kplex {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double elapsed = timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.015);
}

TEST(WallTimer, NanosMonotone) {
  int64_t a = WallTimer::NowNanos();
  int64_t b = WallTimer::NowNanos();
  EXPECT_LE(a, b);
}

TEST(Memory, RssProbesReturnPlausibleValues) {
  EXPECT_GT(CurrentRssKib(), 0);
  EXPECT_GE(PeakRssKib(), CurrentRssKib() / 2);
}

TEST(MappedFile, OpensAndServesFileBytes) {
  if (!MappedFile::Supported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = ::testing::TempDir() + "kplex_mmap_probe";
  const std::string payload = "mapped-file-bytes";
  {
    std::ofstream out(path, std::ios::binary);
    out << payload;
  }
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ((*mapped)->size(), payload.size());
  EXPECT_TRUE((*mapped)->mapped());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>((*mapped)->data()),
                        (*mapped)->size()),
            payload);
  std::remove(path.c_str());
}

TEST(MappedFile, MissingFileIsIoError) {
  auto mapped = MappedFile::Open("/nonexistent/dir/file");
  EXPECT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().code(), StatusCode::kOk);
}

TEST(MappedFile, EmptyFileMapsToNull) {
  if (!MappedFile::Supported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = ::testing::TempDir() + "kplex_mmap_empty";
  { std::ofstream out(path, std::ios::binary); }
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->size(), 0u);
  EXPECT_EQ((*mapped)->data(), nullptr);
  std::remove(path.c_str());
}

TEST(Fnv1a, MatchesPublishedVectorsAndChainsBlocks) {
  EXPECT_EQ(Fnv1a(nullptr, 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1a("bar", 3, Fnv1a("foo", 3)), Fnv1a("foobar", 6));
}

TEST(JsonEscape, PinsEverySpelling) {
  std::string out;
  AppendJsonEscaped(out, std::string_view("\"\\\b\f\n\x1f\r\ta", 9));
  EXPECT_EQ(out, R"(\"\\\b\f\n\u001f\r\ta)");
}

TEST(Logging, LevelFiltering) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  KPLEX_LOG(Info) << "suppressed";  // must not crash
  KPLEX_LOG(Error) << "emitted";
  SetLogLevel(old_level);
}

TEST(GraphStats, MatchesDirectComputation) {
  Graph g = GenerateBarabasiAlbert(200, 4, 3);
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_vertices, g.NumVertices());
  EXPECT_EQ(stats.num_edges, g.NumEdges());
  EXPECT_EQ(stats.max_degree, g.MaxDegree());
  EXPECT_GT(stats.degeneracy, 0u);
  EXPECT_NEAR(stats.average_degree, 2.0 * g.NumEdges() / g.NumVertices(),
              1e-9);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "23456"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(FormatSeconds(0.001234), "0.0012");
  EXPECT_EQ(FormatSeconds(1.23456), "1.235");
  EXPECT_EQ(FormatSeconds(123.456), "123.46");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatCount(98765), "98765");
}

TEST(Harness, SequentialVariantsAgreeViaFingerprint) {
  Graph g = GenerateBarabasiAlbert(120, 6, 4);
  RunOutcome ours = TimeAlgo(g, MakeSequentialAlgo("Ours", 2, 6));
  ASSERT_TRUE(ours.ok) << ours.error;
  for (const char* name : {"Ours_P", "Basic", "Basic+R1", "Basic+R2",
                           "Ours\\ub", "Ours\\ub+fp", "ListPlex", "FP"}) {
    RunOutcome other = TimeAlgo(g, MakeSequentialAlgo(name, 2, 6));
    ASSERT_TRUE(other.ok) << name << ": " << other.error;
    EXPECT_EQ(other.num_plexes, ours.num_plexes) << name;
    EXPECT_EQ(other.fingerprint, ours.fingerprint) << name;
  }
}

TEST(Harness, ParallelVariantsAgreeViaFingerprint) {
  Graph g = GenerateBarabasiAlbert(150, 7, 5);
  RunOutcome sequential = TimeAlgo(g, MakeSequentialAlgo("Ours", 2, 6));
  for (const char* name : {"Ours-par", "ListPlex-par", "FP-par"}) {
    RunOutcome parallel = TimeAlgo(g, MakeParallelAlgo(name, 2, 6, 2, 0.1));
    ASSERT_TRUE(parallel.ok) << name << ": " << parallel.error;
    EXPECT_EQ(parallel.fingerprint, sequential.fingerprint) << name;
  }
  // FP-par is FP's search, one whole-seed task per seed: no sub-tasks,
  // and the sequential FP's branch calls.
  CountingSink fp_sink, par_sink;
  auto fp = FpEnumerate(g, FpOptions(2, 6), fp_sink);
  auto par = MakeParallelAlgo("FP-par", 2, 6, 2, 0.1)(g, par_sink);
  ASSERT_TRUE(fp.ok() && par.ok());
  EXPECT_EQ(par->counters.subtasks, 0u);
  EXPECT_GT(fp->counters.branch_calls, 0u);
  EXPECT_EQ(par->counters.branch_calls, fp->counters.branch_calls);
}

TEST(Harness, MeasurePeakRssIsolatesChild) {
  // MeasurePeakRssKib reports the child's peak-RSS *growth* beyond its
  // inherited pre-fork footprint. An empty workload grows (near) zero.
  int64_t empty_growth = MeasurePeakRssKib([] {});
  ASSERT_GE(empty_growth, 0);
  EXPECT_LT(empty_growth, 8 * 1024);
  const int64_t parent_rss_before = CurrentRssKib();
  int64_t with_allocation = MeasurePeakRssKib([] {
    // Touch ~64 MiB so the child's growth is unmistakable.
    std::vector<char> block(64 << 20, 1);
    volatile char sink = block[block.size() - 1];
    (void)sink;
  });
  EXPECT_GT(with_allocation, 32 * 1024);
  // The parent's own footprint must not have grown by the child's block.
  EXPECT_LT(CurrentRssKib(), parent_rss_before + 32 * 1024);
}

}  // namespace
}  // namespace kplex
