// Unit tests for SNAP edge-list I/O, including the bundled karate graph.

#include "graph/edge_list_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace kplex {
namespace {

// Named after the running test (ctest runs every case in its own
// process), numbered within it.
std::string WriteTemp(const std::string& contents) {
  static int counter = 0;
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "kplex_io_test_" +
                     test->test_suite_name() + "_" + test->name() + "_" +
                     std::to_string(counter++);
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(EdgeListIo, ParsesCommentsAndWhitespace) {
  std::string path = WriteTemp(
      "# a SNAP-style header\n"
      "% another comment style\n"
      "\n"
      "0\t1\n"
      "1 2\n"
      "  2   0  \n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 3u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, CompactsSparseIdsPreservingOrder) {
  std::string path = WriteTemp("10 500\n500 9000\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3u);  // {10, 500, 9000} -> {0, 1, 2}
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_FALSE(g->HasEdge(0, 2));
  std::remove(path.c_str());
}

TEST(EdgeListIo, DropsSelfLoopsAndDuplicates) {
  std::string path = WriteTemp("1 1\n1 2\n2 1\n1 2\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, AcceptsCrlfLineEndings) {
  std::string path = WriteTemp(
      "# exported on Windows\r\n"
      "0\t1\r\n"
      "1 2\r\n"
      "2 0 \r\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 3u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, AcceptsMixedTabsAndMissingFinalNewline) {
  std::string path = WriteTemp("0\t\t1\n1  \t 2");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, TrailingJunkIsIoError) {
  std::string path = WriteTemp("0 1\n1 2 oops\n");
  auto g = LoadEdgeList(path);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  // The error names the offending line.
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos)
      << g.status().ToString();
  std::remove(path.c_str());
}

TEST(EdgeListIo, NegativeIdIsIoError) {
  std::string path = WriteTemp("0 1\n-1 2\n");
  auto g = LoadEdgeList(path);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(EdgeListIo, OverflowingIdIsIoError) {
  // 2^64 must not silently wrap to vertex 0.
  std::string path = WriteTemp("18446744073709551616 1\n");
  auto g = LoadEdgeList(path);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());

  // UINT64_MAX itself is still a legal id.
  path = WriteTemp("18446744073709551615 1\n");
  auto ok = LoadEdgeList(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumEdges(), 1u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, OverlongCommentIsSkippedOverlongNumberRejected) {
  std::string long_comment = "# " + std::string(10000, 'x') + "\n";
  std::string path = WriteTemp(long_comment + "0 1\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 1u);
  std::remove(path.c_str());

  std::string long_data = "0 " + std::string(10000, '1') + "\n";
  path = WriteTemp(long_data);
  auto bad = LoadEdgeList(path);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(EdgeListIo, DataLineWithKilobytesOfTrailingWhitespaceIsAccepted) {
  // Long lines must not trip any internal buffer boundary (a 4095-byte
  // valid line once mis-parsed as "too long").
  std::string path =
      WriteTemp("0 1" + std::string(4092, ' ') + "\n1 2" +
                std::string(8000, ' '));  // second line: no final newline
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, HeavyDuplicationStillBuildsSimpleGraph) {
  std::string contents;
  for (int i = 0; i < 50; ++i) {
    contents += "3 3\n";   // self-loops
    contents += "1 2\n";   // duplicates
    contents += "2 1\n";   // reversed duplicates
  }
  std::string path = WriteTemp(contents);
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3u);  // {1, 2, 3}
  EXPECT_EQ(g->NumEdges(), 1u);
  std::remove(path.c_str());
}

TEST(EdgeListIo, MissingFileIsIoError) {
  auto g = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST(EdgeListIo, GarbageLineIsIoError) {
  std::string path = WriteTemp("0 1\nhello world\n");
  auto g = LoadEdgeList(path);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(EdgeListIo, SaveLoadRoundTrip) {
  std::string path = WriteTemp("0 1\n1 2\n2 3\n0 3\n0 2\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  std::string path2 = path + "_resaved";
  ASSERT_TRUE(SaveEdgeList(*g, path2).ok());
  auto g2 = LoadEdgeList(path2);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g->NumVertices(), g2->NumVertices());
  EXPECT_EQ(g->NumEdges(), g2->NumEdges());
  EXPECT_EQ(g->Edges(), g2->Edges());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(EdgeListIo, BundledKarateClub) {
  auto g = LoadEdgeList(std::string(KPLEX_DATA_DIR) + "/karate.txt");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 34u);
  EXPECT_EQ(g->NumEdges(), 78u);
  // The two hubs (instructor = published id 1, president = 34) map to
  // compacted ids 0 and 33.
  EXPECT_EQ(g->Degree(0), 16u);
  EXPECT_EQ(g->Degree(33), 17u);
}

}  // namespace
}  // namespace kplex
