// Demonstrates what the service layer amortizes, in three stages:
// (1) loading — SNAP edge-list parse vs a v2 snapshot (mmap zero-copy),
// (2) reduction — a cold mine that peels
// the (q-k)-core vs one served from precomputed snapshot sections (the
// counters prove the skip and the fingerprints prove equality), and
// (3) repeat queries — cold vs warm (result-cached) through the
// QueryEngine, including a warm hit from a request that only differs in
// thread count, and (4) contention — a ServiceDispatcher batch of mixed
// queries at 1/2/4/8 workers over the same resident catalog, cold vs
// warm, with a fingerprint self-check across worker counts (the bench
// doubles as a concurrency soak test). Every "identical" claim is
// checked, not eyeballed; the process exits non-zero on any mismatch.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common/table_printer.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/dispatcher.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/service_session.h"
#include "util/timer.h"

namespace kplex {
namespace {

constexpr uint32_t kK = 2;
constexpr uint32_t kQ = 10;

int Run() {
  const std::string dir =
      "/tmp/kplex_service_bench_" + std::to_string(::getpid());
  const std::string edges_path = dir + "/graph.txt";
  const std::string v2_path = dir + "/graph_v2.kpx";
  const std::string pre_path = dir + "/graph_pre.kpx";
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  std::printf("generating Barabasi-Albert graph (n=30000, attach=12)...\n");
  Graph graph = GenerateBarabasiAlbert(30000, 12, 7);
  std::printf("graph: %zu vertices, %zu edges\n\n", graph.NumVertices(),
              graph.NumEdges());
  SnapshotWriteOptions with_pre;
  with_pre.include_precompute = true;
  with_pre.core_mask_levels = {kQ - kK};
  if (!SaveEdgeList(graph, edges_path).ok() ||
      !SaveSnapshot(graph, v2_path).ok() ||
      !SaveSnapshot(graph, pre_path, with_pre).ok()) {
    std::fprintf(stderr, "cannot write graph files under %s\n", dir.c_str());
    return 1;
  }

  // ------------------------------------------------------ load latency
  TablePrinter load_table({"load path", "seconds", "speedup", "owned",
                           "mapped"});
  WallTimer timer;
  auto parsed = LoadEdgeList(edges_path);
  const double parse_seconds = timer.ElapsedSeconds();
  timer.Restart();
  auto snapped_v2 = LoadSnapshotFull(v2_path);
  const double v2_seconds = timer.ElapsedSeconds();
  if (!parsed.ok() || !snapped_v2.ok() ||
      parsed->NumEdges() != snapped_v2->graph.NumEdges()) {
    std::fprintf(stderr, "load mismatch between edge list and snapshot\n");
    return 1;
  }
  auto human_mib = [](std::size_t bytes) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
    return std::string(buf);
  };
  load_table.AddRow({"SNAP edge list", FormatSeconds(parse_seconds), "1.0",
                     human_mib(parsed->MemoryBytes()), "0"});
  load_table.AddRow(
      {snapped_v2->mapped ? "v2 snapshot (mmap)" : "v2 snapshot (buffered)",
       FormatSeconds(v2_seconds),
       FormatDouble(parse_seconds / v2_seconds, 1),
       human_mib(snapped_v2->graph.MemoryBytes()),
       human_mib(snapped_v2->graph.MappedBytes())});
  load_table.Print(std::cout);
  const bool mmap_wins = v2_seconds < parse_seconds;
  std::printf("v2 mmap load beats the parse: %s (%.0fx)\n\n",
              mmap_wins ? "yes" : "NO (BUG)",
              parse_seconds / std::max(v2_seconds, 1e-9));

  // ------------------------------------------- reduction skip latency
  auto pre_loaded = LoadSnapshotFull(pre_path);
  if (!pre_loaded.ok() || pre_loaded->precompute.empty()) {
    std::fprintf(stderr, "precompute snapshot failed to load sections\n");
    return 1;
  }
  EnumOptions plain = EnumOptions::Ours(kK, kQ);
  EnumOptions served = plain;
  served.precompute = &pre_loaded->precompute;

  TablePrinter reduce_table({"mine (k=2, q=10)", "plexes", "seconds",
                             "reduction"});
  HashingSink cold_sink;
  timer.Restart();
  auto cold_mine = EnumerateMaximalKPlexes(pre_loaded->graph, plain,
                                           cold_sink);
  const double cold_mine_seconds = timer.ElapsedSeconds();
  HashingSink pre_sink;
  timer.Restart();
  auto pre_mine = EnumerateMaximalKPlexes(pre_loaded->graph, served,
                                          pre_sink);
  const double pre_mine_seconds = timer.ElapsedSeconds();
  if (!cold_mine.ok() || !pre_mine.ok()) {
    std::fprintf(stderr, "mine failed\n");
    return 1;
  }
  reduce_table.AddRow({"recomputed reduction",
                       FormatCount(cold_mine->num_plexes),
                       FormatSeconds(cold_mine_seconds), "peeled"});
  reduce_table.AddRow(
      {"precomputed sections", FormatCount(pre_mine->num_plexes),
       FormatSeconds(pre_mine_seconds),
       pre_mine->counters.core_reductions_precomputed > 0 ? "skipped"
                                                          : "NOT SKIPPED"});
  reduce_table.Print(std::cout);
  const bool reduction_ok =
      pre_mine->counters.core_reductions_precomputed == 1 &&
      pre_mine->counters.orderings_precomputed == 1 &&
      pre_mine->num_plexes == cold_mine->num_plexes &&
      pre_sink.fingerprint() == cold_sink.fingerprint();
  std::printf("precomputed run produced identical results: %s\n\n",
              reduction_ok ? "yes" : "NO (BUG)");

  // -------------------------------------------------- cold/warm cache
  GraphCatalog catalog;
  QueryEngine engine(catalog);
  Status registered = catalog.RegisterFile("bench", pre_path);
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }

  QueryRequest request;
  request.graph = "bench";
  request.k = kK;
  request.q = kQ;

  TablePrinter query_table(
      {"query", "plexes", "seconds", "served from cache"});
  auto cold = engine.Run(request);
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return 1;
  }
  query_table.AddRow({"cold (k=2, q=10)", FormatCount(cold->num_plexes),
                      FormatSeconds(cold->seconds),
                      cold->from_cache ? "yes" : "no"});

  auto warm = engine.Run(request);
  if (!warm.ok()) {
    std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
    return 1;
  }
  query_table.AddRow({"warm repeat", FormatCount(warm->num_plexes),
                      FormatSeconds(warm->seconds),
                      warm->from_cache ? "yes" : "no"});

  QueryRequest threaded = request;
  threaded.threads = 4;
  auto warm_threaded = engine.Run(threaded);
  if (!warm_threaded.ok()) {
    std::fprintf(stderr, "%s\n",
                 warm_threaded.status().ToString().c_str());
    return 1;
  }
  query_table.AddRow({"warm, threads=4", FormatCount(warm_threaded->num_plexes),
                      FormatSeconds(warm_threaded->seconds),
                      warm_threaded->from_cache ? "yes" : "no"});
  query_table.Print(std::cout);

  const bool identical = warm->from_cache &&
                         warm->num_plexes == cold->num_plexes &&
                         warm->fingerprint == cold->fingerprint &&
                         warm_threaded->from_cache &&
                         warm_threaded->fingerprint == cold->fingerprint &&
                         cold->fingerprint == cold_sink.fingerprint() &&
                         cold->reduction_precomputed;
  std::printf("\nwarm results identical to cold run (and the cold service "
              "run used precompute): %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("cold-to-warm speedup: %.0fx\n",
              cold->seconds / std::max(warm->seconds, 1e-9));

  // ------------------------------------- streamed delivery (protocol v4)
  // What results=stream costs on top of a count-only mine: buffering
  // the plex bodies, then chunk-framing them through a ServiceSession
  // (the exact serve code path, written to a sink in memory). top=K
  // shows the selection sink's price for keeping only the K best.
  // Self-checked: the streamed chunks must reassemble to the count-only
  // answer and top=K must serve the K largest, best-first.
  std::printf("\nstreamed delivery (k=%u, q=%u)\n", kK, kQ);
  bool stream_ok = true;
  {
    TablePrinter stream_table({"mode", "plexes", "seconds", "vs count"});
    QueryEngine stream_engine(catalog, /*cache_capacity=*/0);

    QueryRequest count_only = request;
    timer.Restart();
    auto counted = stream_engine.Run(count_only);
    const double count_seconds = timer.ElapsedSeconds();
    stream_ok = counted.ok();

    QueryRequest buffered = request;
    buffered.collect_bodies = true;
    timer.Restart();
    auto bodies = stream_engine.Run(buffered);
    const double buffered_seconds = timer.ElapsedSeconds();
    stream_ok = stream_ok && bodies.ok() && bodies->plexes != nullptr &&
                bodies->plexes->size() == counted->num_plexes &&
                bodies->fingerprint == counted->fingerprint;

    // The serve path end to end: chunk frames rendered by a framed
    // ServiceSession into an in-memory sink.
    std::ostringstream wire;
    ServiceSession session(wire);
    stream_ok = stream_ok &&
                session.catalog().RegisterFile("bench", pre_path).ok() &&
                session.ExecuteLine("hello proto=4 mode=framed");
    timer.Restart();
    stream_ok = stream_ok &&
                session.ExecuteLine(
                    "{\"id\":1,\"cmd\":\"mine\",\"graph\":\"bench\","
                    "\"k\":" + std::to_string(kK) +
                    ",\"q\":" + std::to_string(kQ) +
                    ",\"results\":\"stream\",\"chunk\":64,"
                    "\"cache\":false}");
    const double streamed_seconds = timer.ElapsedSeconds();
    uint64_t chunk_frames = 0;
    const std::string transcript = wire.str();
    for (std::size_t at = transcript.find("\"type\":\"result_chunk\"");
         at != std::string::npos;
         at = transcript.find("\"type\":\"result_chunk\"", at + 1)) {
      ++chunk_frames;
    }
    const uint64_t expected_frames =
        counted.ok() ? std::max<uint64_t>(
                           1, (counted->num_plexes + 63) / 64)
                     : 0;
    stream_ok = stream_ok && chunk_frames == expected_frames &&
                session.errors() == 0;

    QueryRequest top = request;
    top.collect_bodies = true;
    top.top_k = 10;
    timer.Restart();
    auto best = stream_engine.Run(top);
    const double top_seconds = timer.ElapsedSeconds();
    stream_ok = stream_ok && best.ok() && best->plexes != nullptr &&
                best->plexes->size() ==
                    std::min<uint64_t>(10, counted->num_plexes);
    if (stream_ok && !best->plexes->empty()) {
      stream_ok = best->plexes->front().size() == counted->max_plex_size;
      for (std::size_t i = 1; i < best->plexes->size(); ++i) {
        stream_ok = stream_ok && (*best->plexes)[i - 1].size() >=
                                     (*best->plexes)[i].size();
      }
    }

    auto ratio = [&](double seconds) {
      return FormatDouble(seconds / std::max(count_seconds, 1e-9), 2) + "x";
    };
    stream_table.AddRow({"count only", FormatCount(counted->num_plexes),
                         FormatSeconds(count_seconds), "1.00x"});
    stream_table.AddRow({"bodies buffered",
                         FormatCount(counted->num_plexes),
                         FormatSeconds(buffered_seconds),
                         ratio(buffered_seconds)});
    stream_table.AddRow({"streamed chunks (session)",
                         FormatCount(counted->num_plexes),
                         FormatSeconds(streamed_seconds),
                         ratio(streamed_seconds)});
    stream_table.AddRow({"top=10", "10", FormatSeconds(top_seconds),
                         ratio(top_seconds)});
    stream_table.Print(std::cout);
    std::printf("streamed chunks reassemble the count-only answer and "
                "top=K is best-first: %s\n",
                stream_ok ? "yes" : "NO (BUG)");
  }

  // --------------------------------------------- contended throughput
  // A batch of mixed queries (4 distinct q values, 3 copies each) runs
  // through the ServiceDispatcher at increasing worker counts over the
  // *same* resident catalog entry. Cold rows use a fresh result cache
  // (duplicates collapse through single-flight); warm rows repeat the
  // batch against the populated cache. Fingerprints must be identical
  // at every worker count — that check is what turns a throughput
  // table into a soak test.
  std::printf("\ncontended dispatcher throughput "
              "(batch: 4 distinct queries x 3 copies)\n");
  TablePrinter contended_table(
      {"workers", "cold s", "cold jobs/s", "warm s", "warm jobs/s"});
  std::map<uint32_t, uint64_t> reference_fingerprints;  // q -> fingerprint
  bool contended_ok = true;
  for (const uint32_t workers : {1u, 2u, 4u, 8u}) {
    QueryEngine contended(catalog);  // fresh cache: cold per worker count
    DispatcherOptions dispatch;
    dispatch.workers = workers;
    ServiceDispatcher dispatcher(contended, dispatch);

    auto run_batch = [&](double& seconds) {
      std::vector<uint64_t> ids;
      WallTimer batch_timer;
      for (int copy = 0; copy < 3; ++copy) {
        for (uint32_t q = kQ; q < kQ + 4; ++q) {
          QueryRequest request;
          request.graph = "bench";
          request.k = kK;
          request.q = q;
          auto id = dispatcher.Submit(request);
          if (!id.ok()) return false;
          ids.push_back(*id);
        }
      }
      for (const uint64_t id : ids) {
        auto info = dispatcher.Wait(id);
        if (!info.ok() || info->state != JobState::kDone) return false;
        const uint32_t q = info->request.q;
        auto ref = reference_fingerprints.find(q);
        if (ref == reference_fingerprints.end()) {
          reference_fingerprints.emplace(q, info->result.fingerprint);
        } else if (ref->second != info->result.fingerprint) {
          return false;
        }
      }
      seconds = batch_timer.ElapsedSeconds();
      return true;
    };

    double cold_seconds = 0, warm_seconds = 0;
    if (!run_batch(cold_seconds) || !run_batch(warm_seconds)) {
      contended_ok = false;
      break;
    }
    contended_table.AddRow({std::to_string(workers),
                            FormatSeconds(cold_seconds),
                            FormatDouble(12.0 / cold_seconds, 1),
                            FormatSeconds(warm_seconds),
                            FormatDouble(12.0 / warm_seconds, 1)});
  }
  contended_table.Print(std::cout);
  std::printf("fingerprints identical across 1/2/4/8 workers (cold and "
              "warm): %s\n", contended_ok ? "yes" : "NO (BUG)");

  // ---------------------------------------------- sharded seed space
  // Sharded mining (docs/SHARDING.md) inside one process: the same
  // query as 1 shard vs 4 seed-range shards on a 4-worker dispatcher.
  // The merged 4-shard fingerprint must equal the single-shard run —
  // the same check the TCP coordinator applies across machines.
  std::printf("\nsharded seed space (k=%u, q=%u; 4 dispatcher workers)\n",
              kK, kQ);
  bool shard_ok = true;
  double one_shard_seconds = 0, four_shard_seconds = 0;
  uint64_t one_shard_fingerprint = 0;
  TablePrinter shard_table({"shards", "plexes", "seconds", "fingerprint ok"});
  {
    QueryEngine shard_engine(catalog, /*cache_capacity=*/0);
    DispatcherOptions dispatch;
    dispatch.workers = 4;
    ServiceDispatcher dispatcher(shard_engine, dispatch);

    // Probe for the seed-space size (the coordinator's planning step).
    QueryRequest probe;
    probe.graph = "bench";
    probe.k = kK;
    probe.q = kQ;
    probe.seed_begin = 0;
    probe.seed_end = 0;
    auto probed = shard_engine.Run(probe);
    const uint64_t total_seeds = probed.ok() ? probed->total_seeds : 0;
    shard_ok = probed.ok() && total_seeds > 0;

    auto run_shards = [&](uint32_t shards, double& seconds,
                          uint64_t& fingerprint, uint64_t& plexes) {
      WallTimer shard_timer;
      std::vector<uint64_t> ids;
      for (uint32_t i = 0; i < shards; ++i) {
        QueryRequest request;
        request.graph = "bench";
        request.k = kK;
        request.q = kQ;
        request.seed_begin =
            static_cast<uint32_t>(total_seeds * i / shards);
        request.seed_end =
            static_cast<uint32_t>(total_seeds * (i + 1) / shards);
        if (shards == 1) request.seed_end = UINT32_MAX;  // the full run
        auto id = dispatcher.Submit(request);
        if (!id.ok()) return false;
        ids.push_back(*id);
      }
      MergeableResult merged;
      for (const uint64_t id : ids) {
        auto info = dispatcher.Wait(id);
        if (!info.ok() || info->state != JobState::kDone) return false;
        MergeableResult piece;
        piece.count = info->result.num_plexes;
        piece.xor_hash = info->result.fingerprint_xor;
        piece.max_plex_size = info->result.max_plex_size;
        merged.Merge(piece);
      }
      seconds = shard_timer.ElapsedSeconds();
      fingerprint = merged.fingerprint();
      plexes = merged.count;
      return true;
    };

    uint64_t one_plexes = 0, four_plexes = 0, four_fingerprint = 0;
    shard_ok = shard_ok &&
               run_shards(1, one_shard_seconds, one_shard_fingerprint,
                          one_plexes) &&
               run_shards(4, four_shard_seconds, four_fingerprint,
                          four_plexes) &&
               one_shard_fingerprint == four_fingerprint &&
               one_shard_fingerprint == cold_sink.fingerprint() &&
               one_plexes == four_plexes;
    shard_table.AddRow({"1", FormatCount(one_plexes),
                        FormatSeconds(one_shard_seconds), "(reference)"});
    shard_table.AddRow({"4", FormatCount(four_plexes),
                        FormatSeconds(four_shard_seconds),
                        shard_ok ? "yes" : "NO (BUG)"});
  }
  shard_table.Print(std::cout);
  std::printf("4-shard merge identical to 1 shard: %s (%.2fx)\n",
              shard_ok ? "yes" : "NO (BUG)",
              one_shard_seconds / std::max(four_shard_seconds, 1e-9));

  std::system(("rm -rf " + dir).c_str());
  return identical && reduction_ok && stream_ok && contended_ok && shard_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace kplex

int main() { return kplex::Run(); }
