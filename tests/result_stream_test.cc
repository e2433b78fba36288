// Streamed result delivery (protocol v4) — the property battery behind
// ISSUE 7: bounded result_chunk frames reassemble to exactly the
// buffered result set at every chunk size, cursor pagination loses and
// duplicates nothing, server-side selection (filter/contain/top)
// commutes with enumeration, and mode=maximum agrees with the
// FindMaximumKPlex oracle through the full service stack. Plus the
// coordinated-mine compatibility contract: every selection option is
// refused with a structured explanation, not a generic error.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coord/coordinator.h"
#include "core/max_kplex.h"
#include "graph/generators.h"
#include "service/graph_catalog.h"
#include "service/protocol.h"
#include "service/query_engine.h"
#include "service/service_session.h"

namespace kplex {
namespace {

using Bodies = std::vector<std::vector<VertexId>>;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Canonical (sorted) view of a result set, for order-independent
/// equality between differently-ordered runs.
Bodies Canon(Bodies bodies) {
  for (auto& plex : bodies) std::sort(plex.begin(), plex.end());
  std::sort(bodies.begin(), bodies.end());
  return bodies;
}

/// One decoded streamed exchange: the chunk frames (validated — seqs
/// contiguous from 0, exactly one final chunk flagged last, every
/// non-final chunk exactly `chunk_size` plexes) and the final verdict.
struct StreamedExchange {
  Bodies bodies;
  uint64_t chunks = 0;
  JobInfo verdict;
  uint64_t buffered = 0;  ///< the verdict frame's bodies count
};

/// Runs one framed mine line through a fresh cursor in `session`'s
/// output and decodes the chunk frames + final mine frame it produced.
StreamedExchange RunStreamedMine(ServiceSession& session,
                                 std::ostringstream& out,
                                 const std::string& mine_frame,
                                 uint32_t chunk_size) {
  const std::size_t before = Lines(out.str()).size();
  EXPECT_TRUE(session.ExecuteLine(mine_frame));
  std::vector<std::string> lines = Lines(out.str());
  StreamedExchange exchange;
  bool saw_last = false;
  bool saw_verdict = false;
  uint64_t next_seq = 0;
  for (std::size_t i = before; i < lines.size(); ++i) {
    auto type = PeekFramedResponseType(lines[i]);
    EXPECT_TRUE(type.ok()) << lines[i] << ": " << type.status().ToString();
    if (!type.ok()) continue;
    if (*type == "result_chunk") {
      EXPECT_FALSE(saw_last) << "chunk after the last chunk: " << lines[i];
      EXPECT_FALSE(saw_verdict) << "chunk after the verdict: " << lines[i];
      auto chunk = ParseFramedResultChunk(lines[i]);
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (!chunk.ok()) continue;
      EXPECT_EQ(chunk->seq, next_seq++) << "out-of-order chunk";
      if (!chunk->last) {
        EXPECT_EQ(chunk->plexes.size(), chunk_size)
            << "undersized non-final chunk " << chunk->seq;
      } else {
        EXPECT_LE(chunk->plexes.size(), chunk_size);
        saw_last = true;
      }
      exchange.bodies.insert(exchange.bodies.end(), chunk->plexes.begin(),
                             chunk->plexes.end());
      ++exchange.chunks;
    } else if (*type == "mine") {
      auto verdict = ParseFramedResponse(lines[i], &exchange.buffered);
      EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (!verdict.ok()) continue;
      EXPECT_TRUE(ExpectPayload(*verdict, MineResponse{}).ok()) << lines[i];
      exchange.verdict = std::get<MineResponse>(verdict->payload).job;
      saw_verdict = true;
    } else {
      ADD_FAILURE() << "unexpected '" << *type << "' frame: " << lines[i];
    }
  }
  EXPECT_TRUE(saw_last) << "stream never terminated with a last chunk";
  EXPECT_TRUE(saw_verdict) << "stream never delivered the final verdict";
  // The verdict's bodies count is the reassembly contract.
  EXPECT_EQ(exchange.bodies.size(), exchange.buffered);
  return exchange;
}

/// A framed session over `graph`, past the hello handshake.
struct FramedHarness {
  std::ostringstream out;
  ServiceSession session{out};
  explicit FramedHarness(const Graph& graph) {
    EXPECT_TRUE(session.catalog().RegisterGraph("g", graph).ok());
    EXPECT_TRUE(session.ExecuteLine("hello proto=4 mode=framed"));
  }
};

/// The buffered oracle: the engine's own bodies for `request` (exact
/// emission order), bypassing the wire entirely.
Bodies BufferedBodies(const Graph& graph, QueryRequest request) {
  GraphCatalog catalog;
  EXPECT_TRUE(catalog.RegisterGraph("g", graph).ok());
  QueryEngine engine(catalog, 0);
  request.graph = "g";
  request.collect_bodies = true;
  auto result = engine.Run(request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok() || result->plexes == nullptr) return {};
  return *result->plexes;
}

TEST(ResultStream, EveryChunkSizeReassemblesTheBufferedSetExactly) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  QueryRequest oracle_request;
  oracle_request.k = 2;
  oracle_request.q = 5;
  const Bodies oracle = BufferedBodies(graph, oracle_request);
  ASSERT_GT(oracle.size(), 1u) << "test graph produced a trivial answer";

  // {1, 7, default}: a fresh session per size (no cross-run cache
  // coupling of the output stream).
  const std::vector<uint32_t> sizes = {1, 7, 0};
  for (uint32_t size : sizes) {
    FramedHarness harness(graph);
    std::string frame =
        "{\"id\":5,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
        "\"results\":\"stream\"";
    if (size > 0) frame += ",\"chunk\":" + std::to_string(size);
    frame += "}";
    const uint32_t effective = size > 0 ? size : kDefaultResultChunkSize;
    StreamedExchange exchange =
        RunStreamedMine(harness.session, harness.out, frame, effective);
    // Exact, order-preserving reassembly — sequential enumeration is
    // deterministic, so the stream equals the buffered bodies 1:1.
    EXPECT_EQ(exchange.bodies, oracle) << "chunk=" << size;
    EXPECT_EQ(exchange.chunks,
              (oracle.size() + effective - 1) / effective)
        << "chunk=" << size;
    EXPECT_EQ(exchange.verdict.result.num_plexes, oracle.size());
    EXPECT_EQ(exchange.verdict.state, JobState::kDone);
    EXPECT_EQ(harness.session.errors(), 0u) << harness.out.str();
  }
}

TEST(ResultStream, EmptyResultStreamsOneEmptyLastChunk) {
  // No 2-plex of size >= 40 exists in this graph: the filtered stream
  // is empty, and the chunk phase still terminates explicitly.
  const Graph graph = GenerateErdosRenyi(60, 0.05, 7);
  FramedHarness harness(graph);
  StreamedExchange exchange = RunStreamedMine(
      harness.session, harness.out,
      "{\"id\":1,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":4,"
      "\"results\":\"stream\",\"min_size\":40}",
      kDefaultResultChunkSize);
  EXPECT_EQ(exchange.chunks, 1u);
  EXPECT_TRUE(exchange.bodies.empty());
  EXPECT_EQ(exchange.verdict.result.num_plexes, 0u);
}

TEST(ResultStream, TextModeStreamsChunkLinesBeforeTheMineLine) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  const Bodies oracle = BufferedBodies(graph, [] {
    QueryRequest r;
    r.k = 2;
    r.q = 5;
    return r;
  }());
  std::ostringstream out;
  ServiceSession session(out);
  ASSERT_TRUE(session.catalog().RegisterGraph("g", graph).ok());
  EXPECT_TRUE(session.ExecuteLine("mine g 2 5 results=stream chunk=5"));
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_FALSE(lines.empty());
  // Chunks first, verdict last; ceil(N/5) chunk lines; the final chunk
  // line carries the ' last:' marker.
  EXPECT_EQ(lines.back().rfind("mined g k=2 q=5", 0), 0u) << lines.back();
  const std::size_t chunk_lines = lines.size() - 1;
  EXPECT_EQ(chunk_lines, (oracle.size() + 4) / 5) << out.str();
  for (std::size_t i = 0; i < chunk_lines; ++i) {
    EXPECT_EQ(lines[i].rfind("chunk ", 0), 0u) << lines[i];
    EXPECT_EQ(lines[i].find(" last") != std::string::npos,
              i + 1 == chunk_lines)
        << lines[i];
  }
  EXPECT_EQ(session.errors(), 0u) << out.str();
}

TEST(ResultStream, CursorPaginationLosesAndDuplicatesNothing) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  // The fp baseline walks the same canonical seed order, one task per
  // seed, so its emission order is fixed and its cursors are exact too.
  for (QueryAlgo algo : {QueryAlgo::kOurs, QueryAlgo::kFp}) {
    SCOPED_TRACE(QueryAlgoName(algo));
    QueryRequest oracle_request;
    oracle_request.k = 2;
    oracle_request.q = 5;
    oracle_request.algo = algo;
    const Bodies oracle = BufferedBodies(graph, oracle_request);
    ASSERT_GT(oracle.size(), 20u);

    FramedHarness harness(graph);
    Bodies reassembled;
    std::string cursor;  // empty = first page
    uint64_t pages = 0;
    for (;;) {
      ASSERT_LT(pages, oracle.size()) << "pagination failed to converge";
      std::string frame =
          "{\"id\":7,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
          "\"algo\":\"" + std::string(QueryAlgoName(algo)) + "\","
          "\"results\":\"stream\",\"chunk\":3,\"max_results\":7,"
          "\"cache\":false";
      if (!cursor.empty()) frame += ",\"cursor\":\"" + cursor + "\"";
      frame += "}";
      StreamedExchange page =
          RunStreamedMine(harness.session, harness.out, frame, 3);
      ++pages;
      reassembled.insert(reassembled.end(), page.bodies.begin(),
                         page.bodies.end());
      if (!page.verdict.result.has_cursor) {
        EXPECT_FALSE(page.verdict.result.stopped_early);
        break;
      }
      // A client cancelled at its cap resumes from the returned token —
      // interleave an unrelated mine to show the token is stateless.
      EXPECT_TRUE(page.verdict.result.stopped_early);
      EXPECT_TRUE(harness.session.ExecuteLine(
          "{\"id\":8,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":1,\"q\":4}"));
      cursor = FormatCursorValue(page.verdict.result.cursor_seed,
                                 page.verdict.result.cursor_ordinal);
    }
    // Exact reassembly: same bodies, same order, no loss, no duplicates.
    EXPECT_EQ(reassembled, oracle);
    EXPECT_EQ(pages, (oracle.size() + 6) / 7);
    EXPECT_EQ(harness.session.errors(), 0u);
  }
}

TEST(ResultStream, FiltersCommuteWithEnumeration) {
  // Server-side selection must equal client-side selection over the
  // full set, across a (k, q) grid on two generator families.
  const std::vector<Graph> graphs = {GenerateErdosRenyi(150, 0.1, 21),
                                     GenerateBarabasiAlbert(300, 6, 9)};
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const Graph& graph = graphs[g];
    for (uint32_t k = 2; k <= 3; ++k) {
      for (uint32_t q = 2 * k; q <= 2 * k + 2; q += 2) {
        QueryRequest base;
        base.k = k;
        base.q = q;
        const Bodies all = BufferedBodies(graph, base);
        if (all.empty()) continue;
        const std::string tag = "graph " + std::to_string(g) + " k=" +
                                std::to_string(k) + " q=" +
                                std::to_string(q);

        // size>=S, size<=T around the median size, plus contain=V for
        // a vertex known to appear.
        const std::size_t median = all[all.size() / 2].size();
        const VertexId witness = all.front().front();

        QueryRequest filtered = base;
        filtered.filter_min_size = median;
        filtered.filter_max_size = median + 1;
        filtered.has_contain = true;
        filtered.contain = witness;
        const Bodies served = BufferedBodies(graph, filtered);

        Bodies expected;
        for (const auto& plex : all) {
          if (plex.size() < median || plex.size() > median + 1) continue;
          if (std::find(plex.begin(), plex.end(), witness) == plex.end()) {
            continue;
          }
          expected.push_back(plex);
        }
        EXPECT_EQ(Canon(served), Canon(expected)) << tag;

        // top=K equals sorting the full set best-first (size desc,
        // then lexicographic) and truncating.
        QueryRequest top = base;
        top.top_k = 5;
        const Bodies best = BufferedBodies(graph, top);
        Bodies ranked = all;
        std::sort(ranked.begin(), ranked.end(),
                  [](const std::vector<VertexId>& a,
                     const std::vector<VertexId>& b) {
                    if (a.size() != b.size()) return a.size() > b.size();
                    return a < b;
                  });
        ranked.resize(std::min<std::size_t>(5, ranked.size()));
        EXPECT_EQ(best, ranked) << tag;

        // Filtered counts are exact, not post-hoc: a count-only run
        // with the same filter agrees with the served bodies.
        GraphCatalog catalog;
        ASSERT_TRUE(catalog.RegisterGraph("g", graph).ok());
        QueryEngine engine(catalog, 0);
        QueryRequest count_only = filtered;
        count_only.graph = "g";
        count_only.collect_bodies = false;
        auto counted = engine.Run(count_only);
        ASSERT_TRUE(counted.ok()) << tag;
        EXPECT_EQ(counted->num_plexes, served.size()) << tag;
      }
    }
  }
}

TEST(ResultStream, MaximumModeAgreesWithTheOracleThroughTheStack) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  for (uint32_t k = 2; k <= 3; ++k) {
    auto oracle = FindMaximumKPlex(graph, k);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_TRUE(oracle->found) << "test graph has no maximum " << k
                               << "-plex";

    FramedHarness harness(graph);
    StreamedExchange exchange = RunStreamedMine(
        harness.session, harness.out,
        "{\"id\":3,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":" +
            std::to_string(k) +
            ",\"q\":0,\"mode\":\"maximum\",\"results\":\"stream\"}",
        kDefaultResultChunkSize);
    EXPECT_EQ(exchange.verdict.result.num_plexes, 1u);
    ASSERT_EQ(exchange.bodies.size(), 1u);
    EXPECT_EQ(exchange.bodies.front().size(), oracle->plex.size());
    EXPECT_EQ(Canon(exchange.bodies).front(), oracle->plex);
    EXPECT_EQ(exchange.verdict.result.max_plex_size, oracle->plex.size());
    EXPECT_EQ(harness.session.errors(), 0u) << harness.out.str();
  }

  // A graph below the 2k-1 connectivity floor answers "none" as an
  // empty stream, not an error.
  const Graph edgeless = GenerateErdosRenyi(10, 0.0, 1);
  FramedHarness harness(edgeless);
  StreamedExchange exchange = RunStreamedMine(
      harness.session, harness.out,
      "{\"id\":4,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":0,"
      "\"mode\":\"maximum\",\"results\":\"stream\"}",
      kDefaultResultChunkSize);
  EXPECT_EQ(exchange.verdict.result.num_plexes, 0u);
  EXPECT_TRUE(exchange.bodies.empty());
  EXPECT_EQ(harness.session.errors(), 0u) << harness.out.str();
}

TEST(ResultStream, SelectionOptionRejectionsAreStructured) {
  // The engine refuses incoherent combinations with explanations.
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.RegisterGraph("g", GenerateErdosRenyi(60, 0.1, 3)).ok());
  QueryEngine engine(catalog, 0);

  QueryRequest parallel_cursor;
  parallel_cursor.graph = "g";
  parallel_cursor.k = 2;
  parallel_cursor.q = 4;
  parallel_cursor.has_cursor = true;
  parallel_cursor.threads = 4;
  auto rejected = engine.Run(parallel_cursor);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("sequential run"),
            std::string::npos)
      << rejected.status().ToString();

  QueryRequest cursor_top = parallel_cursor;
  cursor_top.threads = 0;
  cursor_top.top_k = 3;
  rejected = engine.Run(cursor_top);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("top selects over the whole"),
            std::string::npos)
      << rejected.status().ToString();

  QueryRequest maximum_filtered;
  maximum_filtered.graph = "g";
  maximum_filtered.k = 2;
  maximum_filtered.q = 0;
  maximum_filtered.maximum = true;
  maximum_filtered.filter_min_size = 5;
  rejected = engine.Run(maximum_filtered);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("does not compose"),
            std::string::npos)
      << rejected.status().ToString();
}

TEST(ResultStream, CoordinatedMinesRefuseSelectionWithExplanations) {
  // Satellite of ISSUE 7: the sharded path explains *why* an option is
  // incompatible instead of a generic refusal. Message fragments are
  // load-bearing — the CLI prints them verbatim.
  QueryRequest base;
  base.graph = "g";
  base.k = 2;
  base.q = 5;
  EXPECT_TRUE(ValidateCoordinatedQuery(base).ok());

  QueryRequest capped = base;
  capped.max_results = 100;
  Status status = ValidateCoordinatedQuery(capped);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("Coordinated mines are count-exact"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(
                "run a single-process mine for a truncated answer"),
            std::string::npos)
      << status.ToString();

  QueryRequest streamed = base;
  streamed.collect_bodies = true;
  status = ValidateCoordinatedQuery(streamed);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Stream from a single worker"),
            std::string::npos)
      << status.ToString();

  QueryRequest filtered = base;
  filtered.filter_min_size = 9;
  status = ValidateCoordinatedQuery(filtered);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("merge algebra is exact only over the "
                                  "full result set"),
            std::string::npos)
      << status.ToString();

  QueryRequest top = base;
  top.top_k = 3;
  EXPECT_FALSE(ValidateCoordinatedQuery(top).ok());

  QueryRequest maximum = base;
  maximum.maximum = true;
  status = ValidateCoordinatedQuery(maximum);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not seed-range partitionable"),
            std::string::npos)
      << status.ToString();

  QueryRequest resumed = base;
  resumed.has_cursor = true;
  status = ValidateCoordinatedQuery(resumed);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sequential single-process enumeration"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace kplex
