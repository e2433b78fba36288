// kplex_cli — the command-line front end of the library.
//
//   kplex_cli mine {--input G.txt | --dataset NAME} --k 2 --q 12
//             [--algo ours|ours_p|basic|listplex|fp] [--threads N]
//             [--tau-ms 0.1] [--max-results N] [--time-limit S]
//             [--seed-range B:E] [selection] [--output F | --stream]
//   kplex_cli mine --store DIR {--input G.txt | --dataset NAME} ...
//   kplex_cli mine --endpoint host:port --graph NAME --k K --q Q ...
//   kplex_cli mine --endpoints host:port,... --graph NAME --k K --q Q
//   kplex_cli report --input G.txt
//   kplex_cli snapshot --input G.txt --output G.kpx [--precompute]
//             [--core-levels C1,C2,...]
//   kplex_cli serve [--script F] [--memory-budget-mb N] [--cache-capacity N]
//             [--workers N] [--listen PORT] [--host H] [--max-connections N]
//   kplex_cli coordinate --listen PORT [--host H]
//             [--workers host:port,...] [--chunks-per-worker N]
//             [--io-timeout S] [--steal-min-ms T]
//   kplex_cli coordctl HOST:PORT VERB [ARGS...]
//   kplex_cli metrics --endpoint host:port [--format table|prom|json]
//   kplex_cli datasets
//
// `mine` is the one query command. Its flags build one QueryRequest
// (the selection options of docs/SERVE.md included: --top, --contain,
// --min-size, --max-size, --maximum, --cursor) and one verdict line
// reports it, whichever of four modes answers:
//   - a local mine runs the request through ExecuteQuery in process;
//     --output F and --stream write each plex as it is emitted;
//   - --store DIR runs it through a QueryEngine with a durable result
//     store attached, so a repeat (even from a new process) is answered
//     from DIR without enumerating;
//   - --endpoint H:P sends it as one framed mine to a `serve --listen`
//     worker or a `coordinate` daemon (streamed bodies included);
//   - --endpoints A,B,... runs the sharded path (docs/SHARDING.md) in
//     process: a Coordinator over the listed workers (--graph names the
//     graph in *their* catalogs) plans cost-balanced chunks, work-steals
//     stragglers, and merges the chunk fingerprints into one verified
//     total. `--seed-range B:E` instead mines one shard (manual runs).
//
// `serve` without --listen is the stdin/script session; with --listen it
// serves the same protocol (docs/SERVE.md) to TCP clients until SIGINT/
// SIGTERM, running --script first to preload the shared catalog.
// `coordinate` keeps a coordinator alive as a daemon that owns a worker
// pool; `coordctl` speaks any single coordinator verb (register, drain,
// workers, jobs, ...) as one framed round trip.
//
// Graphs are SNAP-format edge lists ('#' comments, "u v" per line) or
// binary CSR snapshots (auto-detected; see docs/SNAPSHOT_FORMAT.md).
// `snapshot` writes v2; v1 files from older builds still load. Mining a
// snapshot that carries precomputed reduction sections (--precompute at
// snapshot time) skips the (q-k)-core peel and the degeneracy ordering
// on every subsequent run.

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#endif

#include "bench_common/dataset_registry.h"
#include "bench_common/table_printer.h"
#include "coord/coord_session.h"
#include "coord/coordinator.h"
#include "core/file_sink.h"
#include "core/sink.h"
#include "graph/connectivity.h"
#include "graph/edge_list_io.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "graph/triangles.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_engine.h"
#include "service/service_session.h"
#include "store/result_store.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"
#include "util/flags.h"
#include "util/logging.h"

namespace kplex {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  kplex_cli mine {--input G.txt | --dataset NAME} --k K --q Q\n"
               "            [options]\n"
               "  kplex_cli mine --store DIR {--input G.txt | --dataset NAME}\n"
               "            --k K --q Q [--store-budget-mb N] [options]\n"
               "  kplex_cli mine --endpoint host:port --graph NAME\n"
               "            --k K --q Q [--io-timeout S] [options]\n"
               "  kplex_cli mine --endpoints host:port,... --graph NAME\n"
               "            --k K --q Q [--io-timeout S] [--algo A]\n"
               "            [--threads N] [--tau-ms T]\n"
               "  kplex_cli report --input G.txt\n"
               "  kplex_cli snapshot --input G.txt --output G.kpx\n"
               "            [--precompute] [--core-levels C1,C2,...]\n"
               "  kplex_cli serve [--script F] [--memory-budget-mb N]\n"
               "                  [--cache-capacity N] [--workers N] [--echo]\n"
               "                  [--listen PORT] [--host H]\n"
               "                  [--max-connections N]\n"
               "                  [--store DIR] [--store-budget-mb N]\n"
               "  kplex_cli coordinate --listen PORT [--host H]\n"
               "            [--workers host:port,...] [--chunks-per-worker N]\n"
               "            [--io-timeout S] [--steal-min-ms T]\n"
               "  kplex_cli coordctl HOST:PORT VERB [ARGS...] [--io-timeout S]\n"
               "  kplex_cli metrics --endpoint host:port\n"
               "            [--format table|prom|json] [--io-timeout S]\n"
               "  kplex_cli datasets\n"
               "global options (any command):\n"
               "  --log-level L     debug, info, warning or error\n"
               "  --log-json        one JSON object per log line\n"
               "  --trace           emit per-query span lines to stderr\n"
               "  --metrics-dump    print this process's metrics (Prometheus\n"
               "                    format) to stderr at exit\n"
               "options for mine:\n"
               "  --dataset NAME    use a registry dataset instead of --input\n"
               "  --algo NAME       ours (default), ours_p, basic, listplex, fp\n"
               "  --threads N       parallel mining with N workers (at most "
               "1024)\n"
               "  --tau-ms T        straggler timeout (default 0.1; parallel only)\n"
               "  --max-results N   stop after N results\n"
               "  --time-limit S    soft wall-clock budget in seconds\n"
               "  --seed-range B:E  mine one shard of the seed space "
               "(E may be 'end')\n"
               "  --output FILE     write each plex (one line each) to FILE\n"
               "  --stream          print each plex to stdout\n"
               "  --top K           only the K largest plexes, best first\n"
               "  --contain V       only plexes containing vertex V\n"
               "  --min-size S      only plexes with >= S vertices\n"
               "  --max-size T      only plexes with <= T vertices\n"
               "  --maximum         the single largest k-plex (no --q)\n"
               "  --cursor S:O      resume a max-results-truncated\n"
               "                    sequential mine where it stopped\n"
               "  --store DIR       durable result store: a repeat of the\n"
               "                    same mine (even from a new process) is\n"
               "                    answered from DIR without enumerating\n"
               "  --endpoint H:P    send the mine to a `serve --listen`\n"
               "                    worker or a `coordinate` daemon\n"
               "  --endpoints LIST  coordinate the mine over these workers\n"
               "  --graph NAME      graph name in the server's catalog\n"
               "  --io-timeout S    per-socket-op timeout; a hung worker\n"
               "                    becomes a requeued chunk (default:\n"
               "                    none — set above the slowest chunk)\n"
               "--top and --maximum print their plexes without --stream.\n");
  return 2;
}

/// Resolves --dataset/--input, preserving snapshot precompute sections
/// (empty for edge lists and datasets).
StatusOr<LoadedSnapshot> LoadInputFull(const FlagParser& flags) {
  std::string dataset = flags.GetString("dataset", "");
  if (!dataset.empty()) {
    auto graph = LoadDataset(dataset);
    if (!graph.ok()) return graph.status();
    LoadedSnapshot loaded;
    loaded.graph = *std::move(graph);
    return loaded;
  }
  std::string input = flags.GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("one of --input or --dataset is required");
  }
  return LoadGraphAutoFull(input);
}

/// Graph-only wrapper for commands that ignore precompute sections.
StatusOr<Graph> LoadInput(const FlagParser& flags) {
  auto loaded = LoadInputFull(flags);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

/// Prints `status` to stderr; the exit code of a failed command.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

/// Integer flag `name` in 0..max. A negative value is refused by name
/// rather than wrapped to 2^32 - 1 by the cast to the request field.
StatusOr<uint64_t> GetCount(const FlagParser& flags, const std::string& name,
                            int64_t default_value, uint64_t max = INT64_MAX) {
  auto value = flags.GetInt(name, default_value);
  if (!value.ok()) return value.status();
  if (*value < 0 || static_cast<uint64_t>(*value) > max) {
    return Status::InvalidArgument("--" + name + " must be in 0.." +
                                   std::to_string(max) + ", got " +
                                   std::to_string(*value));
  }
  return static_cast<uint64_t>(*value);
}

/// Duration flag `name` (seconds or milliseconds, as the flag says),
/// refusing negative and non-finite values by name.
StatusOr<double> GetDuration(const FlagParser& flags, const std::string& name,
                             double default_value) {
  auto value = flags.GetDouble(name, default_value);
  if (!value.ok()) return value.status();
  if (!std::isfinite(*value) || *value < 0) {
    return Status::InvalidArgument("--" + name + " must be a finite number "
                                   ">= 0, got '" +
                                   flags.GetString(name, "") + "'");
  }
  return *value;
}

/// Flags every command accepts.
const std::vector<std::string>& GlobalFlags() {
  static const std::vector<std::string> flags = {"log-level", "log-json",
                                                 "trace", "metrics-dump"};
  return flags;
}

/// Where a mine runs; see the file comment.
enum class MineMode { kLocal, kStore, kEndpoint, kEndpoints };

const char* MineModeName(MineMode mode) {
  switch (mode) {
    case MineMode::kLocal: return "a local mine (--input/--dataset)";
    case MineMode::kStore: return "mine --store";
    case MineMode::kEndpoint: return "mine --endpoint";
    case MineMode::kEndpoints: return "mine --endpoints";
  }
  return "?";
}

/// The flags `mode` reads. Each mode refuses the flags only another
/// mode reads, the way Main refuses another command's flags: a --store
/// on a coordinated mine, or a --graph on a local one, is a mistake the
/// user should hear about, not a no-op. A coordinated mine is
/// count-exact by construction, so it takes no selection flags.
std::vector<std::string> MineFlags(MineMode mode) {
  std::vector<std::string> flags = {"k",       "q",      "algo",
                                    "threads", "tau-ms", "max-results",
                                    "time-limit"};
  flags.insert(flags.end(), GlobalFlags().begin(), GlobalFlags().end());
  if (mode != MineMode::kEndpoints) {
    flags.insert(flags.end(),
                 {"seed-range", "output", "stream", "top", "contain",
                  "min-size", "max-size", "maximum", "cursor"});
  }
  switch (mode) {
    case MineMode::kStore:
      flags.insert(flags.end(), {"store", "store-budget-mb"});
      [[fallthrough]];
    case MineMode::kLocal:
      flags.insert(flags.end(), {"input", "dataset"});
      break;
    case MineMode::kEndpoint:
      flags.insert(flags.end(), {"endpoint", "graph", "io-timeout"});
      break;
    case MineMode::kEndpoints:
      flags.insert(flags.end(), {"endpoints", "graph", "io-timeout"});
      break;
  }
  return flags;
}

/// The one flags -> QueryRequest builder of every mine mode. The graph
/// is --graph for a remote mine, and the dataset or input file (the
/// verdict's label) for an in-process one.
StatusOr<QueryRequest> BuildMineRequest(const FlagParser& flags,
                                        MineMode mode) {
  QueryRequest query;
  const bool remote =
      mode == MineMode::kEndpoint || mode == MineMode::kEndpoints;
  query.graph = remote ? flags.GetString("graph", "")
                       : flags.GetString("dataset",
                                         flags.GetString("input", ""));
  if (query.graph.empty()) {
    return Status::InvalidArgument(
        remote ? "a remote mine needs --graph NAME (the graph's name in "
                 "the server's catalog)"
               : "one of --input or --dataset is required");
  }
  auto k = GetCount(flags, "k", 2, UINT32_MAX);
  auto q = GetCount(flags, "q", 0, UINT32_MAX);
  auto threads = GetCount(flags, "threads", 0, UINT32_MAX);
  auto contain = GetCount(flags, "contain", 0, UINT32_MAX);
  auto max_results = GetCount(flags, "max-results", 0);
  auto top = GetCount(flags, "top", 0);
  auto min_size = GetCount(flags, "min-size", 0);
  auto max_size = GetCount(flags, "max-size", 0);
  auto tau = GetDuration(flags, "tau-ms", 0.1);
  auto time_limit = GetDuration(flags, "time-limit", 0);
  auto algo = ParseQueryAlgo(flags.GetString("algo", "ours"));
  for (const Status& s :
       {k.status(), q.status(), threads.status(), contain.status(),
        max_results.status(), top.status(), min_size.status(),
        max_size.status(), tau.status(), time_limit.status(),
        algo.status()}) {
    if (!s.ok()) return s;
  }
  query.maximum = flags.Has("maximum");
  if (*q == 0 && !query.maximum) {
    return Status::InvalidArgument("--q is required (must be >= 2k - 1)");
  }
  query.k = static_cast<uint32_t>(*k);
  query.q = static_cast<uint32_t>(*q);
  query.algo = *algo;
  query.threads = static_cast<uint32_t>(*threads);
  query.tau_ms = *tau;
  query.max_results = *max_results;
  query.time_limit_seconds = *time_limit;
  query.top_k = *top;
  query.has_contain = flags.Has("contain");
  query.contain = static_cast<uint32_t>(*contain);
  query.filter_min_size = *min_size;
  query.filter_max_size = *max_size;
  const std::string seed_range = flags.GetString("seed-range", "");
  if (!seed_range.empty()) {
    auto range = ParseSeedRangeText(seed_range);
    if (!range.ok()) return range.status();
    query.seed_begin = range->begin;
    query.seed_end = range->end;
  }
  const std::string cursor = flags.GetString("cursor", "");
  if (!cursor.empty()) {
    auto parsed = ParseCursorText(cursor);
    if (!parsed.ok()) return parsed.status();
    query.has_cursor = true;
    query.cursor_seed = parsed->seed;
    query.cursor_ordinal = parsed->ordinal;
  }
  if (flags.Has("stream") && flags.Has("output")) {
    return Status::InvalidArgument(
        "--stream prints the plexes and --output writes them to a file: "
        "pass one of them");
  }
  // Bodies travel whenever the user sees them: streamed, written to
  // --output, or asked for by --top or --maximum. A bare mine is a
  // count-only probe.
  query.collect_bodies = flags.Has("stream") || flags.Has("output") ||
                         query.top_k > 0 || query.maximum;
  return query;
}

void PrintPlexLine(std::span<const VertexId> plex) {
  for (std::size_t i = 0; i < plex.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : " ", plex[i]);
  }
  std::printf("\n");
}

/// `mine --store DIR`: the query runs through the service stack —
/// GraphCatalog + QueryEngine with a ResultStore attached. The graph is
/// registered under the fixed catalog name "cli"; store entries key on
/// the graph's *content hash* plus the canonical signature, so two
/// invocations share an entry iff they mined the same bytes with the
/// same parameters. `stats` receives the store's size after the run.
StatusOr<QueryResult> StoreMine(const FlagParser& flags, QueryRequest query,
                                ResultSink* bodies,
                                ResultStore::Stats* stats) {
  auto budget_mb = GetCount(flags, "store-budget-mb", 0, UINT64_MAX >> 20);
  if (!budget_mb.ok()) return budget_mb.status();
  GraphCatalog catalog;
  const std::string dataset = flags.GetString("dataset", "");
  KPLEX_RETURN_IF_ERROR(
      dataset.empty()
          ? catalog.RegisterFile("cli", flags.GetString("input", ""))
          : catalog.RegisterDataset("cli", dataset));
  StoreOptions store_options;
  store_options.directory = flags.GetString("store", "");
  store_options.byte_budget = *budget_mb << 20;
  auto store = ResultStore::Open(std::move(store_options));
  if (!store.ok()) {
    return Status::IoError("cannot open result store: " +
                           store.status().message());
  }
  QueryEngine engine(catalog);
  engine.AttachStore(store->get());
  query.graph = "cli";
  auto result = engine.Run(query);
  if (!result.ok()) return result.status();
  if (bodies != nullptr && result->plexes != nullptr) {
    for (const std::vector<VertexId>& plex : *result->plexes) {
      bodies->Emit(plex);
    }
  }
  *stats = (*store)->stats();
  return result;
}

/// `mine --endpoint H:P`: one framed mine round trip. A `serve --listen`
/// worker answers it, and so does a `coordinate` daemon (its mine verb
/// replies with the same plain mine frame). Streamed result_chunk
/// frames arrive before the verdict frame and go to `bodies` in order.
StatusOr<QueryResult> RemoteMine(const std::string& endpoint,
                                 double io_timeout, const QueryRequest& query,
                                 ResultSink* bodies) {
  TcpClient client;
  KPLEX_RETURN_IF_ERROR(ConnectFramed(client, endpoint, io_timeout,
                                      kProtocolVersionStreaming,
                                      "mine --endpoint"));
  Request request;
  request.id = 2;
  request.payload = MineRequest{query};
  KPLEX_RETURN_IF_ERROR(client.SendLine(FormatFramedRequest(request)));
  uint64_t streamed = 0;
  for (uint64_t expected_seq = 0;; ++expected_seq) {
    auto line = client.ReadLine();
    if (!line.ok()) return line.status();
    uint64_t buffered = 0;
    auto response = ParseFramedResponse(*line, &buffered);
    if (!response.ok()) return response.status();
    const auto* chunk = std::get_if<ResultChunkResponse>(&response->payload);
    if (chunk == nullptr) {
      KPLEX_RETURN_IF_ERROR(ExpectPayload(*response, MineResponse{}));
      JobInfo& job = std::get<MineResponse>(response->payload).job;
      if (query.collect_bodies && buffered != streamed) {
        return Status::Internal("stream truncated: the server buffered " +
                                std::to_string(buffered) + " bodies but " +
                                std::to_string(streamed) + " arrived");
      }
      job.result.cancelled |= job.state != JobState::kDone;
      return std::move(job.result);
    }
    if (chunk->seq != expected_seq) {
      return Status::Internal(
          "stream out of order: expected chunk " +
          std::to_string(expected_seq) + ", got " + std::to_string(chunk->seq));
    }
    for (const std::vector<VertexId>& plex : chunk->plexes) {
      if (bodies != nullptr) bodies->Emit(plex);
      ++streamed;
    }
  }
}

/// Adds every endpoint of the comma-separated `list` to `coordinator`
/// (a repeated endpoint is one worker).
Status AddWorkers(Coordinator& coordinator, const std::string& list) {
  auto endpoints = ParseEndpointList(list);
  if (!endpoints.ok()) return endpoints.status();
  for (const std::string& endpoint : *endpoints) {
    KPLEX_RETURN_IF_ERROR(coordinator.AddWorker(endpoint).status());
  }
  return Status::Ok();
}

/// `mine --endpoints A,B,...`: an in-process Coordinator over the listed
/// workers (docs/SHARDING.md). The job runs as cost-planned chunks with
/// requeue and work stealing; the merged chunk table prints before the
/// verdict.
StatusOr<QueryResult> CoordinatedMine(const std::string& list,
                                      double io_timeout,
                                      const QueryRequest& query) {
  CoordinatorOptions options;
  options.io_timeout_seconds = io_timeout;
  Coordinator coordinator(options);
  KPLEX_RETURN_IF_ERROR(AddWorkers(coordinator, list));
  auto id = coordinator.Submit(query);
  if (!id.ok()) return id.status();
  auto job = coordinator.Wait(*id);
  coordinator.Stop();
  if (!job.ok()) return job.status();
  if (job->state != "done") return job->status;

  TablePrinter table({"seeds", "worker", "plexes", "seconds", "stolen"});
  for (const CoordChunkOutcome& chunk : job->outcomes) {
    table.AddRow({std::to_string(chunk.begin) + ":" +
                      std::to_string(chunk.end),
                  chunk.endpoint, FormatCount(chunk.plexes),
                  FormatSeconds(chunk.seconds), chunk.yielded ? "yes" : "-"});
  }
  table.Print(std::cout);
  QueryResult result;
  result.num_plexes = job->num_plexes;
  result.max_plex_size = static_cast<std::size_t>(job->max_plex_size);
  result.fingerprint = job->fingerprint;
  result.seconds = job->seconds;
  return result;
}

/// The verdict of every mine mode: one line with the count, max size
/// and fingerprint — machine-read by tools/cli_smoke.py, coord_smoke.py
/// and metrics_smoke.py, so keep its shape stable — then what only an
/// in-process run knows, the store's state, and where --output went.
void PrintVerdict(const FlagParser& flags, MineMode mode,
                  const QueryRequest& query, const QueryResult& result,
                  const ResultStore::Stats* store) {
  // Only the remote modes accept --endpoint and --endpoints.
  const std::string server =
      flags.GetString("endpoints", flags.GetString("endpoint", ""));
  const std::string via = server.empty() ? "" : " via " + server;
  std::printf("mine %s%s k=%u q=%u: %llu plexes, max size %zu, "
              "fingerprint 0x%016llx, %.3fs%s%s%s%s",
              query.graph.c_str(), via.c_str(), query.k, query.q,
              static_cast<unsigned long long>(result.num_plexes),
              result.max_plex_size,
              static_cast<unsigned long long>(result.fingerprint),
              result.seconds, result.from_cache ? " [cached]" : "",
              result.timed_out ? " [time limit hit]" : "",
              result.stopped_early ? " [result cap hit]" : "",
              result.cancelled ? " [cancelled]" : "");
  if (result.has_cursor) {
    std::printf(" [cursor %s]", FormatCursorValue(result.cursor_seed,
                                                  result.cursor_ordinal)
                                    .c_str());
  }
  std::printf("\n");
  const bool in_process = mode == MineMode::kLocal || mode == MineMode::kStore;
  if (in_process && query.HasSeedRange()) {
    std::printf("seed shard %s of %llu total seeds (merge shards per "
                "docs/SHARDING.md)\n",
                flags.GetString("seed-range", "").c_str(),
                static_cast<unsigned long long>(result.total_seeds));
  }
  if (in_process && !result.from_cache && !query.maximum) {
    const AlgoCounters& counters = result.counters;
    std::printf("branch calls: %llu, sub-tasks: %llu (R1-pruned: %llu), "
                "ub-prunes: %llu\n",
                static_cast<unsigned long long>(counters.branch_calls),
                static_cast<unsigned long long>(counters.subtasks),
                static_cast<unsigned long long>(counters.subtasks_pruned_r1),
                static_cast<unsigned long long>(counters.ub_prunes));
    if (counters.core_reductions_precomputed > 0) {
      std::printf("reduction served from snapshot sections (core%s)\n",
                  counters.orderings_precomputed > 0 ? " + ordering" : "");
    }
  }
  if (store != nullptr) {
    // Machine-read by tools/cli_smoke.py: keep the shape stable.
    std::printf("store tier: %s, fingerprint 0x%016llx "
                "(%llu entries, %llu bytes)\n",
                result.from_store   ? "disk"
                : result.from_cache ? "memory"
                                    : "computed",
                static_cast<unsigned long long>(result.fingerprint),
                static_cast<unsigned long long>(store->entries),
                static_cast<unsigned long long>(store->bytes));
  }
  const std::string output = flags.GetString("output", "");
  if (!output.empty()) std::printf("results written to %s\n", output.c_str());
}

int RunMine(const FlagParser& flags) {
  const MineMode mode = flags.Has("endpoints")  ? MineMode::kEndpoints
                        : flags.Has("endpoint") ? MineMode::kEndpoint
                        : flags.Has("store")    ? MineMode::kStore
                                                : MineMode::kLocal;
  const std::vector<std::string> stray = flags.UnknownFlags(MineFlags(mode));
  if (!stray.empty()) {
    std::fprintf(stderr, "--%s does not apply to %s\n", stray.front().c_str(),
                 MineModeName(mode));
    return 1;
  }
  auto query = BuildMineRequest(flags, mode);
  if (!query.ok()) return Fail(query.status());
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());

  // Bodies go to --output, or to stdout when the request carries them;
  // both sinks take each plex as it arrives, from any engine thread.
  const std::string output = flags.GetString("output", "");
  std::unique_ptr<FileSink> file;
  std::mutex stdout_mutex;
  CallbackSink to_stdout([&](std::span<const VertexId> plex) {
    std::lock_guard<std::mutex> lock(stdout_mutex);
    PrintPlexLine(plex);
  });
  ResultSink* bodies = query->collect_bodies ? &to_stdout : nullptr;
  if (!output.empty()) {
    file = std::make_unique<FileSink>(output);
    if (!file->status().ok()) return Fail(file->status());
    bodies = file.get();
  }

  StatusOr<QueryResult> result = Status::Internal("unreachable");
  ResultStore::Stats store_stats;
  switch (mode) {
    case MineMode::kLocal: {
      auto loaded = LoadInputFull(flags);
      if (!loaded.ok()) return Fail(loaded.status());
      const GraphPrecompute* precompute =
          loaded->precompute.empty() ? nullptr : &loaded->precompute;
      result = ExecuteQuery(loaded->graph, precompute, *query, bodies,
                            NextTraceId());
      if (result.ok()) result->seconds = result->compute_seconds;
      break;
    }
    case MineMode::kStore:
      result = StoreMine(flags, *query, bodies, &store_stats);
      break;
    case MineMode::kEndpoint:
      result = RemoteMine(flags.GetString("endpoint", ""), *io_timeout,
                          *query, bodies);
      break;
    case MineMode::kEndpoints:
      result = CoordinatedMine(flags.GetString("endpoints", ""), *io_timeout,
                               *query);
      break;
  }
  if (!result.ok()) return Fail(result.status());
  if (file != nullptr) {
    Status io = file->Finish();
    if (!io.ok()) return Fail(io);
  }
  PrintVerdict(flags, mode, *query, *result,
               mode == MineMode::kStore ? &store_stats : nullptr);
  return result->cancelled ? 1 : 0;
}

int RunReport(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  GraphStats stats = ComputeGraphStats(*graph);
  ComponentResult components = ConnectedComponents(*graph);
  std::printf("vertices:            %zu\n", stats.num_vertices);
  std::printf("edges:               %zu\n", stats.num_edges);
  std::printf("max degree:          %zu\n", stats.max_degree);
  std::printf("average degree:      %.2f\n", stats.average_degree);
  std::printf("degeneracy:          %u\n", stats.degeneracy);
  std::printf("components:          %zu (largest: %zu)\n",
              components.NumComponents(), components.LargestSize());
  std::printf("triangles:           %llu\n",
              static_cast<unsigned long long>(CountTriangles(*graph)));
  std::printf("global clustering:   %.4f\n",
              GlobalClusteringCoefficient(*graph));
  std::printf("avg local clustering: %.4f\n",
              AverageLocalClustering(*graph));
  return 0;
}

int RunSnapshot(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string output = flags.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "--output FILE is required\n");
    return 1;
  }

  SnapshotWriteOptions options;
  options.include_precompute = flags.Has("precompute");
  const std::string levels = flags.GetString("core-levels", "");
  if (!levels.empty()) {
    auto parsed = ParseCoreLevelList(levels);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    options.include_precompute = true;
    options.core_mask_levels = *std::move(parsed);
  }

  Status saved = SaveSnapshot(*graph, output, options);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("snapshot (v2%s) of %zu vertices / %zu edges written to %s\n",
              options.include_precompute ? ", precompute sections" : "",
              graph->NumVertices(), graph->NumEdges(), output.c_str());
  return 0;
}

#if defined(__unix__) || defined(__APPLE__)
// Self-pipe for signal-driven shutdown: the handler performs one
// async-signal-safe write; ServeUntilSignal blocks on the read end.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  // The return value is deliberately unused: the pipe being full means a
  // shutdown byte is already pending.
  [[maybe_unused]] ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}
#endif

/// The one shutdown loop of `serve --listen` and `coordinate`: starts
/// `server`, prints its banner, serves until SIGINT/SIGTERM, then stops
/// it and prints "<command>: shutdown complete (...)". The banner line
/// is machine-read by clients started with --listen 0 (the smoke
/// scripts parse the port from it): keep its shape stable; it is
/// flushed immediately.
int ServeUntilSignal(TcpServer& server, const char* command,
                     const std::function<void()>& print_banner) {
#if !defined(__unix__) && !defined(__APPLE__)
  std::fprintf(stderr, "%s --listen requires POSIX sockets on this platform\n",
               command);
  return 1;
#else
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "cannot create the shutdown pipe\n");
    server.Stop();
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  print_banner();
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.Stop();
  const TcpServer::Stats stats = server.stats();
  std::printf("%s: shutdown complete (%llu connections served, "
              "%llu refused)\n",
              command, static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused));
  return 0;
#endif  // POSIX
}

int RunServe(const FlagParser& flags) {
  auto budget_mb = GetCount(flags, "memory-budget-mb", 0, SIZE_MAX >> 20);
  auto cache_capacity = GetCount(flags, "cache-capacity", 64);
  auto workers = flags.GetInt("workers", 1);
  auto listen = flags.GetInt("listen", -1);
  auto max_connections = flags.GetInt("max-connections", 64);
  auto store_budget_mb =
      GetCount(flags, "store-budget-mb", 0, UINT64_MAX >> 20);
  for (const Status& s :
       {budget_mb.status(), cache_capacity.status(), workers.status(),
        listen.status(), max_connections.status(),
        store_budget_mb.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (*workers < 1 || *workers > 1024) {
    std::fprintf(stderr, "--workers must be between 1 and 1024\n");
    return 1;
  }
  const bool network = flags.Has("listen");
  if (network && (*listen < 0 || *listen > 65535)) {
    std::fprintf(stderr, "--listen must be a port in 0..65535 (0 picks an "
                         "ephemeral port)\n");
    return 1;
  }
  if (!network && (flags.Has("host") || flags.Has("max-connections"))) {
    std::fprintf(stderr, "--host/--max-connections require --listen\n");
    return 1;
  }
  if (*max_connections < 1 || *max_connections > 4096) {
    std::fprintf(stderr, "--max-connections must be between 1 and 4096\n");
    return 1;
  }
  const std::string store_dir = flags.GetString("store", "");
  if (store_dir.empty() && flags.Has("store-budget-mb")) {
    std::fprintf(stderr, "--store-budget-mb requires --store DIR\n");
    return 1;
  }

  ServiceApiOptions api_options;
  api_options.memory_budget_bytes = static_cast<std::size_t>(*budget_mb) << 20;
  api_options.result_cache_capacity = static_cast<std::size_t>(*cache_capacity);
  api_options.workers = static_cast<uint32_t>(*workers);
  api_options.store_dir = store_dir;
  api_options.store_byte_budget = *store_budget_mb << 20;
  auto api = std::make_shared<ServiceApi>(api_options);
  // A requested-but-broken store is a config error, not something to
  // silently run without.
  if (!api->store_status().ok()) {
    std::fprintf(stderr, "cannot open result store '%s': %s\n",
                 store_dir.c_str(),
                 api->store_status().ToString().c_str());
    return 1;
  }

  // The script runs first in both modes — in network mode it preloads
  // the shared catalog before any client connects.
  const std::string script = flags.GetString("script", "");
  uint64_t failures = 0;
  {
    ServiceSession session(std::cout, api, flags.Has("echo"));
    if (!script.empty()) {
      std::ifstream in(script);
      if (!in) {
        std::fprintf(stderr, "cannot open script '%s'\n", script.c_str());
        return 1;
      }
      failures = session.RunScript(in);
    } else if (!network) {
      failures = session.RunScript(std::cin);
    }
  }
  if (!network) return failures == 0 ? 0 : 1;
  if (failures != 0) {
    std::fprintf(stderr, "serve: preload script had %llu failure(s); "
                         "not listening\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }

  TcpServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*listen);
  server_options.max_connections = static_cast<uint32_t>(*max_connections);
  TcpServer server(api, server_options);
  return ServeUntilSignal(server, "serve", [&] {
    std::printf("serving on %s:%u (protocol v%u, %lld workers)\n",
                server_options.host.c_str(), server.port(), kProtocolVersion,
                static_cast<long long>(*workers));
  });
}

/// The coordinator daemon (docs/SHARDING.md v2): a TCP server whose
/// sessions dispatch to one shared Coordinator instead of a ServiceApi.
/// Workers listed in --workers are registered up front; more can join
/// at runtime via `coordctl HOST:PORT register worker:port`.
int RunCoordinate(const FlagParser& flags) {
  auto listen = flags.GetInt("listen", -1);
  auto max_connections = flags.GetInt("max-connections", 64);
  auto chunks_per_worker = flags.GetInt("chunks-per-worker", 8);
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  auto steal_min_ms = GetDuration(flags, "steal-min-ms", 20.0);
  for (const Status& s :
       {listen.status(), max_connections.status(),
        chunks_per_worker.status(), io_timeout.status(),
        steal_min_ms.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!flags.Has("listen")) {
    std::fprintf(stderr, "coordinate requires --listen PORT (0 picks an "
                         "ephemeral port)\n");
    return 1;
  }
  if (*listen < 0 || *listen > 65535) {
    std::fprintf(stderr, "--listen must be a port in 0..65535 (0 picks an "
                         "ephemeral port)\n");
    return 1;
  }
  if (*max_connections < 1 || *max_connections > 4096) {
    std::fprintf(stderr, "--max-connections must be between 1 and 4096\n");
    return 1;
  }
  if (*chunks_per_worker < 1 || *chunks_per_worker > 1024) {
    std::fprintf(stderr, "--chunks-per-worker must be between 1 and 1024\n");
    return 1;
  }

  CoordinatorOptions options;
  options.chunks_per_worker = static_cast<uint32_t>(*chunks_per_worker);
  options.io_timeout_seconds = *io_timeout;
  options.steal_min_seconds = *steal_min_ms / 1000.0;
  auto coordinator = std::make_shared<Coordinator>(options);

  const std::string workers = flags.GetString("workers", "");
  if (!workers.empty()) {
    Status added = AddWorkers(*coordinator, workers);
    if (!added.ok()) return Fail(added);
  }

  TcpServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*listen);
  server_options.max_connections = static_cast<uint32_t>(*max_connections);
  TcpServer server(
      [coordinator](std::ostream& out) -> std::unique_ptr<WireSession> {
        return std::make_unique<CoordSession>(out, coordinator);
      },
      [coordinator] { coordinator->Stop(); }, server_options);
  return ServeUntilSignal(server, "coordinate", [&] {
    std::printf("coordinating on %s:%u (protocol v%u, %zu workers "
                "registered)\n",
                server_options.host.c_str(), server.port(), kProtocolVersion,
                coordinator->Workers().size());
  });
}

/// One framed round trip that prints the raw response frame: to stdout,
/// or to stderr with exit code 1 when it is an error frame or does not
/// decode.
int PrintFramedReply(const std::string& endpoint, double io_timeout,
                     uint32_t min_version, const char* feature,
                     Request request) {
  TcpClient client;
  Status connected =
      ConnectFramed(client, endpoint, io_timeout, min_version, feature);
  if (!connected.ok()) return Fail(connected);
  request.id = 2;
  Status sent = client.SendLine(FormatFramedRequest(request));
  if (!sent.ok()) return Fail(sent);
  auto line = client.ReadLine();
  if (!line.ok()) return Fail(line.status());
  auto response = ParseFramedResponse(*line);
  const bool refused =
      !response.ok() ||
      std::holds_alternative<ErrorResponse>(response->payload);
  std::fprintf(refused ? stderr : stdout, "%s\n", line->c_str());
  return refused ? 1 : 0;
}

/// `coordctl HOST:PORT VERB [ARGS...]`: one framed round trip against
/// a coordinator daemon. The verb words are validated with the text
/// grammar locally, shipped framed, and the raw response frame prints
/// to stdout (machine-readable; errors land on stderr, exit 1).
int RunCoordctl(const FlagParser& flags) {
  const std::vector<std::string>& positional = flags.positional();
  if (positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: kplex_cli coordctl HOST:PORT VERB [ARGS...]\n");
    return 2;
  }
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  std::string command = positional[2];
  for (std::size_t i = 3; i < positional.size(); ++i) {
    command += ' ';
    command += positional[i];
  }
  auto request = ParseTextRequest(command);
  if (!request.ok()) {
    std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
    return 1;
  }

  return PrintFramedReply(positional[1], *io_timeout,
                          kProtocolVersionCoordination,
                          "the coordinator verbs", *std::move(request));
}

/// Scrapes a live `serve --listen` process's metrics registry. The
/// table/prom forms ride the text wire (the session starts in text
/// mode, so no handshake is needed); json asks over the framed wire and
/// prints the raw response frame.
int RunMetrics(const FlagParser& flags) {
  const std::string endpoint = flags.GetString("endpoint", "");
  if (endpoint.empty()) {
    std::fprintf(stderr, "--endpoint host:port is required\n");
    return 1;
  }
  const std::string format = flags.GetString("format", "table");
  if (format != "table" && format != "prom" && format != "json") {
    std::fprintf(stderr, "--format must be table, prom or json, got '%s'\n",
                 format.c_str());
    return 1;
  }
  auto io_timeout = GetDuration(flags, "io-timeout", 5.0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());

  if (format == "json") {
    return PrintFramedReply(endpoint, *io_timeout, /*min_version=*/3,
                            "the metrics verb", {0, MetricsRequest{}});
  }

  TcpClient client;
  std::string host;
  uint16_t port = 0;
  Status split = SplitEndpoint(endpoint, &host, &port);
  if (!split.ok()) return Fail(split);
  Status connected = client.Connect(host, port, *io_timeout);
  if (!connected.ok()) return Fail(connected);
  Status sent = client.SendLine(format == "prom" ? "metrics format=prom"
                                                 : "metrics");
  if (!sent.ok()) return Fail(sent);
  auto header = client.ReadLine();
  if (!header.ok()) return Fail(header.status());
  // The body length is announced up front ("metrics N series" /
  // "metrics prom N lines"), so the scrape knows exactly how many lines
  // to drain — no sentinel, no read-until-close.
  unsigned long long body_lines = 0;
  const int matched =
      format == "prom"
          ? std::sscanf(header->c_str(), "metrics prom %llu lines",
                        &body_lines)
          : std::sscanf(header->c_str(), "metrics %llu series", &body_lines);
  if (matched != 1) {
    std::fprintf(stderr, "%s\n", header->c_str());
    return 1;
  }
  for (unsigned long long i = 0; i < body_lines; ++i) {
    auto line = client.ReadLine();
    if (!line.ok()) return Fail(line.status());
    std::printf("%s\n", line->c_str());
  }
  return 0;
}

int RunDatasets() {
  TablePrinter table({"name", "stands for", "category", "recipe"});
  for (const auto& spec : AllDatasets()) {
    table.AddRow({spec.name, spec.stands_for, spec.category, spec.recipe});
  }
  table.Print(std::cout);
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const FlagParser& flags = *parsed;
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  // coordctl takes the endpoint and the verb words as positionals;
  // every other command takes none.
  if (command != "coordctl" && flags.positional().size() != 1) {
    return Usage();
  }

  // Global observability flags, valid on every command.
  const std::string log_level = flags.GetString("log-level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "--log-level must be debug, info, warning or "
                           "error, got '%s'\n", log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  if (flags.Has("log-json")) SetLogJson(true);
  if (flags.Has("trace")) SetTraceEnabled(true);

  // Each command rejects the other commands' flags: a serve-only flag
  // on `mine` is a typo the user should hear about, not a no-op.
  std::vector<std::string> known;
  int (*run)(const FlagParser&) = nullptr;
  if (command == "mine") {
    // The store mode reads every flag of the local mode.
    for (MineMode mode : {MineMode::kStore, MineMode::kEndpoint,
                          MineMode::kEndpoints}) {
      const std::vector<std::string> flags_of_mode = MineFlags(mode);
      known.insert(known.end(), flags_of_mode.begin(), flags_of_mode.end());
    }
    run = RunMine;
  } else if (command == "report") {
    known = {"input", "dataset"};
    run = RunReport;
  } else if (command == "snapshot") {
    known = {"input", "dataset", "output", "precompute", "core-levels"};
    run = RunSnapshot;
  } else if (command == "serve") {
    known = {"script", "memory-budget-mb", "cache-capacity", "workers",
             "echo", "listen", "host", "max-connections", "store",
             "store-budget-mb"};
    run = RunServe;
  } else if (command == "coordinate") {
    known = {"listen", "host", "max-connections", "workers",
             "chunks-per-worker", "io-timeout", "steal-min-ms"};
    run = RunCoordinate;
  } else if (command == "coordctl") {
    known = {"io-timeout"};
    run = RunCoordctl;
  } else if (command == "metrics") {
    known = {"endpoint", "format", "io-timeout"};
    run = RunMetrics;
  } else if (command == "datasets") {
    run = [](const FlagParser&) { return RunDatasets(); };
  } else {
    return Usage();
  }
  known.insert(known.end(), GlobalFlags().begin(), GlobalFlags().end());
  auto unknown = flags.UnknownFlags(known);
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s for '%s'\n",
                 unknown.front().c_str(), command.c_str());
    return Usage();
  }
  const int exit_code = run(flags);
  if (flags.Has("metrics-dump")) {
    // To stderr, after the command's own output: stdout stays the
    // machine-readable surface (coord_smoke parses it), and a failed
    // command still reports what its counters saw.
    const std::string dump =
        RenderMetricsPrometheus(MetricsRegistry::Global().Snapshot());
    std::fputs(dump.c_str(), stderr);
  }
  return exit_code;
}

}  // namespace
}  // namespace kplex

int main(int argc, char** argv) { return kplex::Main(argc, argv); }
