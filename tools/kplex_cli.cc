// kplex_cli — the command-line front end of the library.
//
//   kplex_cli mine --input G.txt --k 2 --q 12 [--algo ours|ours_p|basic|
//             listplex|fp] [--threads N] [--tau-ms 0.1] [--output F]
//             [--max-results N] [--time-limit S] [--ctcp]
//             [--seed-range B:E]
//   kplex_cli mine --endpoints host:port,... --graph NAME --k K --q Q
//             [--io-timeout S] [other mine options]   (coordinated)
//   kplex_cli max --input G.txt --k 2
//   kplex_cli report --input G.txt
//   kplex_cli snapshot --input G.txt --output G.kpx [--precompute]
//             [--core-levels C1,C2,...] [--format v1|v2]
//   kplex_cli serve [--script F] [--memory-budget-mb N] [--cache-capacity N]
//             [--workers N] [--listen PORT] [--host H] [--max-connections N]
//   kplex_cli coordinate --listen PORT [--host H]
//             [--workers host:port,...] [--chunks-per-worker N]
//             [--io-timeout S] [--steal-min-ms T]
//   kplex_cli coordctl HOST:PORT VERB [ARGS...]
//   kplex_cli datasets
//
// `serve` without --listen is the stdin/script session; with --listen it
// serves the same protocol (docs/SERVE.md) to TCP clients until SIGINT/
// SIGTERM, running --script first to preload the shared catalog.
//
// `mine --endpoints` runs the sharded path (docs/SHARDING.md) in
// process: a Coordinator over the listed `serve --listen` workers
// (--graph names the graph in *their* catalogs) plans cost-balanced
// chunks from a `plan` probe, work-steals stragglers, and merges the
// chunk fingerprints into one verified total. `--seed-range B:E`
// instead mines one shard locally (manual runs).
//
// `coordinate` keeps that coordinator alive as a daemon that owns a
// worker pool. `mine --coordinator H:P` submits a mine to it;
// `coordctl` speaks any single coordinator verb (register, drain,
// workers, jobs, ...) as one framed round trip.
//
// --dataset NAME may replace --input to mine a registry dataset.
// Graphs are SNAP-format edge lists ('#' comments, "u v" per line) or
// binary CSR snapshots (auto-detected; see docs/SNAPSHOT_FORMAT.md).
// Mining a v2 snapshot that carries precomputed reduction sections
// (--precompute at snapshot time) skips the (q-k)-core peel and the
// degeneracy ordering on every subsequent run.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#endif

#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "bench_common/dataset_registry.h"
#include "bench_common/table_printer.h"
#include "coord/coord_session.h"
#include "coord/coordinator.h"
#include "core/enumerator.h"
#include "core/file_sink.h"
#include "core/max_kplex.h"
#include "core/sink.h"
#include "graph/connectivity.h"
#include "graph/edge_list_io.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "graph/triangles.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_enumerator.h"
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
               "  kplex_cli mine --input G.txt --k K --q Q [options]\n"
               "  kplex_cli mine --endpoints host:port,... --graph NAME\n"
               "            --k K --q Q [--io-timeout S] [options]\n"
               "  kplex_cli max --input G.txt --k K\n"
               "  kplex_cli report --input G.txt\n"
               "  kplex_cli snapshot --input G.txt --output G.kpx\n"
               "            [--precompute] [--core-levels C1,C2,...]\n"
               "            [--format v1|v2]\n"
               "  kplex_cli serve [--script F] [--memory-budget-mb N]\n"
               "                  [--cache-capacity N] [--workers N] [--echo]\n"
               "                  [--listen PORT] [--host H]\n"
               "                  [--max-connections N]\n"
               "                  [--store DIR] [--store-budget-mb N]\n"
               "  kplex_cli coordinate --listen PORT [--host H]\n"
               "            [--workers host:port,...] [--chunks-per-worker N]\n"
               "            [--io-timeout S] [--steal-min-ms T]\n"
               "  kplex_cli mine --coordinator host:port --graph NAME\n"
               "            --k K --q Q [mine options]\n"
               "  kplex_cli coordctl HOST:PORT VERB [ARGS...] [--io-timeout S]\n"
               "  kplex_cli metrics --endpoint host:port\n"
               "            [--format table|prom|json] [--io-timeout S]\n"
               "  kplex_cli query {--endpoint host:port --graph NAME |\n"
               "            --input G.txt} --k K --q Q [--stream] [--chunk N]\n"
               "            [--top K] [--contain V] [--min-size S]\n"
               "            [--max-size T] [--maximum] [--max-results N]\n"
               "            [--cursor S:O] [mine options]\n"
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
               "  --threads N       parallel mining with N workers\n"
               "  --tau-ms T        straggler timeout (default 0.1; parallel only)\n"
               "  --output FILE     write k-plexes (one line each) to FILE\n"
               "  --max-results N   stop after N results\n"
               "  --time-limit S    soft wall-clock budget in seconds\n"
               "  --ctcp            CTCP preprocessing instead of the "
               "(q-k)-core\n"
               "  --seed-range B:E  mine one shard of the seed space "
               "(E may be 'end')\n"
               "  --store DIR       durable result store: a repeat of the\n"
               "                    same mine (even from a new process) is\n"
               "                    answered from DIR without enumerating\n"
               "options for coordinated mine (--endpoints, --coordinator):\n"
               "  --graph NAME      graph name in the workers' catalogs\n"
               "  --threads N       threads per chunk on its worker\n"
               "  --io-timeout S    per-socket-op timeout; a hung worker\n"
               "                    becomes a requeued chunk (default:\n"
               "                    none — set above the slowest chunk)\n"
               "options for query (protocol v4 selection):\n"
               "  --stream          print every plex body (streamed in\n"
               "                    bounded chunks from a remote worker)\n"
               "  --chunk N         plexes per result chunk (default 32)\n"
               "  --top K           only the K largest plexes, best first\n"
               "  --contain V       only plexes containing vertex V\n"
               "  --min-size S      only plexes with >= S vertices\n"
               "  --max-size T      only plexes with <= T vertices\n"
               "  --maximum         the single largest k-plex (max verb\n"
               "                    through the service stack)\n"
               "  --cursor S:O      resume a max-results-truncated\n"
               "                    sequential query where it stopped\n");
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

/// Builds the QueryRequest of a coordinated mine (--endpoints or
/// --coordinator) from the mine flags.
StatusOr<QueryRequest> BuildCoordinatedMineQuery(const FlagParser& flags) {
  QueryRequest query;
  query.graph = flags.GetString("graph", "");
  if (query.graph.empty()) {
    return Status::InvalidArgument(
        "a coordinated mine needs --graph NAME (the graph's name in the "
        "workers' catalogs)");
  }
  auto k = flags.GetInt("k", 2);
  auto q = flags.GetInt("q", 0);
  auto threads = flags.GetInt("threads", 0);
  auto tau = flags.GetDouble("tau-ms", 0.1);
  auto max_results = flags.GetInt("max-results", 0);
  auto time_limit = flags.GetDouble("time-limit", 0);
  for (const Status& s :
       {k.status(), q.status(), threads.status(), tau.status(),
        max_results.status(), time_limit.status()}) {
    if (!s.ok()) return s;
  }
  if (*q == 0) {
    return Status::InvalidArgument("--q is required (must be >= 2k - 1)");
  }
  query.k = static_cast<uint32_t>(*k);
  query.q = static_cast<uint32_t>(*q);
  query.threads = static_cast<uint32_t>(*threads);
  query.tau_ms = *tau;
  query.max_results = static_cast<uint64_t>(*max_results);
  query.time_limit_seconds = *time_limit;
  query.use_ctcp = flags.Has("ctcp");
  auto parsed_algo = ParseQueryAlgo(flags.GetString("algo", "ours"));
  if (!parsed_algo.ok()) return parsed_algo.status();
  query.algo = *parsed_algo;
  // Surface option incompatibilities (max-results, filters, streaming)
  // as their structured explanations before opening any connection.
  KPLEX_RETURN_IF_ERROR(ValidateCoordinatedQuery(query));
  return query;
}

/// The verdict line of a coordinated mine, shared by --endpoints and
/// --coordinator. Machine-read by tools/coord_smoke.py; keep its shape
/// stable.
void PrintCoordinatedVerdict(const QueryRequest& query,
                             const std::string& via, uint64_t plexes,
                             uint64_t max_size, uint64_t fingerprint,
                             double seconds) {
  std::printf("coordinated mine %s k=%u q=%u via %s: %llu plexes, max size "
              "%llu, fingerprint 0x%016llx, %.3fs\n",
              query.graph.c_str(), query.k, query.q, via.c_str(),
              static_cast<unsigned long long>(plexes),
              static_cast<unsigned long long>(max_size),
              static_cast<unsigned long long>(fingerprint), seconds);
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
/// workers (docs/SHARDING.md). Each endpoint becomes one worker (a
/// repeated endpoint is the same worker); the job runs as cost-planned
/// chunks with requeue and work stealing, and prints the merged chunk
/// table plus the verdict `mine --coordinator` prints.
int RunEndpointsMine(const FlagParser& flags) {
  auto query = BuildCoordinatedMineQuery(flags);
  if (!query.ok()) return Fail(query.status());
  auto io_timeout = flags.GetDouble("io-timeout", 0);
  if (!io_timeout.ok() || *io_timeout < 0) {
    std::fprintf(stderr, "--io-timeout must be a number >= 0\n");
    return 1;
  }

  CoordinatorOptions options;
  options.io_timeout_seconds = *io_timeout;
  Coordinator coordinator(options);
  const std::string list = flags.GetString("endpoints", "");
  Status added = AddWorkers(coordinator, list);
  if (!added.ok()) return Fail(added);
  auto id = coordinator.Submit(*query);
  if (!id.ok()) return Fail(id.status());
  auto job = coordinator.Wait(*id);
  coordinator.Stop();
  if (!job.ok()) return Fail(job.status());
  if (job->state != "done") return Fail(job->status);

  TablePrinter table({"seeds", "worker", "plexes", "seconds", "stolen"});
  for (const CoordChunkOutcome& chunk : job->outcomes) {
    table.AddRow({std::to_string(chunk.begin) + ":" +
                      std::to_string(chunk.end),
                  chunk.endpoint, FormatCount(chunk.plexes),
                  FormatSeconds(chunk.seconds), chunk.yielded ? "yes" : "-"});
  }
  table.Print(std::cout);
  PrintCoordinatedVerdict(*query, list, job->num_plexes, job->max_plex_size,
                          job->fingerprint, job->seconds);
  return 0;
}

/// `mine --coordinator H:P`: submit the mine to a coordinator daemon
/// (docs/SHARDING.md) and print its merged verdict. The daemon's mine
/// verb answers with a plain protocol mine frame, so this is the
/// remote-mine client pointed at a different server.
int RunCoordinatorMine(const FlagParser& flags) {
  auto query = BuildCoordinatedMineQuery(flags);
  if (!query.ok()) return Fail(query.status());
  auto io_timeout = flags.GetDouble("io-timeout", 0);
  if (!io_timeout.ok() || *io_timeout < 0) {
    std::fprintf(stderr, "--io-timeout must be a number >= 0\n");
    return 1;
  }
  const std::string endpoint = flags.GetString("coordinator", "");
  TcpClient client;
  Status connected =
      ConnectFramed(client, endpoint, *io_timeout,
                    kProtocolVersionCoordination, "coordinated mining");
  if (!connected.ok()) return Fail(connected);

  Request request;
  request.id = 2;
  request.payload = MineRequest{*query};
  Status sent = client.SendLine(FormatFramedRequest(request));
  if (!sent.ok()) return Fail(sent);
  auto line = client.ReadLine();
  if (!line.ok()) return Fail(line.status());
  auto verdict = ParseFramedMineResult(*line);
  if (!verdict.ok()) return Fail(verdict.status());
  PrintCoordinatedVerdict(*query, endpoint, verdict->plexes,
                          verdict->max_size, verdict->fingerprint,
                          verdict->seconds);
  return verdict->state == "done" ? 0 : 1;
}

/// `mine --store DIR`: the query runs through the service stack —
/// GraphCatalog + QueryEngine with a ResultStore attached — so a repeat
/// of the same mine, even from a fresh process, is answered from the
/// durable store without enumerating. The graph is registered under the
/// fixed catalog name "cli"; store entries key on the graph's *content
/// hash* plus the canonical signature, so two invocations share an
/// entry iff they mined the same bytes with the same parameters.
int RunStoreMine(const FlagParser& flags) {
  auto k = flags.GetInt("k", 2);
  auto q = flags.GetInt("q", 0);
  auto threads = flags.GetInt("threads", 0);
  auto tau = flags.GetDouble("tau-ms", 0.1);
  auto max_results = flags.GetInt("max-results", 0);
  auto time_limit = flags.GetDouble("time-limit", 0);
  auto store_budget_mb = flags.GetInt("store-budget-mb", 0);
  for (const Status& s :
       {k.status(), q.status(), threads.status(), tau.status(),
        max_results.status(), time_limit.status(),
        store_budget_mb.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (*q == 0) {
    std::fprintf(stderr, "--q is required (must be >= 2k - 1)\n");
    return 1;
  }
  if (*store_budget_mb < 0) {
    std::fprintf(stderr, "--store-budget-mb must be >= 0\n");
    return 1;
  }
  auto algo = ParseQueryAlgo(flags.GetString("algo", "ours"));
  if (!algo.ok()) {
    std::fprintf(stderr, "%s\n", algo.status().ToString().c_str());
    return 1;
  }

  GraphCatalog catalog;
  const std::string name = "cli";
  const std::string dataset = flags.GetString("dataset", "");
  const std::string input = flags.GetString("input", "");
  Status registered = Status::Ok();
  if (!dataset.empty()) {
    registered = catalog.RegisterDataset(name, dataset);
  } else if (!input.empty()) {
    registered = catalog.RegisterFile(name, input);
  } else {
    std::fprintf(stderr, "one of --input or --dataset is required\n");
    return 1;
  }
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }

  StoreOptions store_options;
  store_options.directory = flags.GetString("store", "");
  store_options.byte_budget = static_cast<uint64_t>(*store_budget_mb) << 20;
  auto store = ResultStore::Open(std::move(store_options));
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open result store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  QueryEngine engine(catalog);
  engine.AttachStore(store->get());

  QueryRequest request;
  request.graph = name;
  request.k = static_cast<uint32_t>(*k);
  request.q = static_cast<uint32_t>(*q);
  request.algo = *algo;
  request.threads = static_cast<uint32_t>(*threads);
  request.tau_ms = *tau;
  request.max_results = static_cast<uint64_t>(*max_results);
  request.time_limit_seconds = *time_limit;
  request.use_ctcp = flags.Has("ctcp");
  const std::string seed_range = flags.GetString("seed-range", "");
  if (!seed_range.empty()) {
    auto parsed_range = ParseSeedRangeText(seed_range);
    if (!parsed_range.ok()) {
      std::fprintf(stderr, "%s\n", parsed_range.status().ToString().c_str());
      return 1;
    }
    request.seed_begin = parsed_range->begin;
    request.seed_end = parsed_range->end;
  }

  auto result = engine.Run(request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%llu maximal %lld-plexes with >= %lld vertices in %.3fs%s%s\n",
              static_cast<unsigned long long>(result->num_plexes),
              static_cast<long long>(*k), static_cast<long long>(*q),
              result->seconds, result->timed_out ? " (time limit hit)" : "",
              result->stopped_early ? " (result cap hit)" : "");
  const ResultStore::Stats stats = (*store)->stats();
  // Machine-read by tools/store_smoke.py: keep the shape stable.
  std::printf("store tier: %s, fingerprint 0x%016llx "
              "(%llu entries, %llu bytes)\n",
              result->from_store        ? "disk"
              : result->from_cache      ? "memory"
                                        : "computed",
              static_cast<unsigned long long>(result->fingerprint),
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes));
  return result->timed_out || result->cancelled ? 1 : 0;
}

/// A plain mine of a local graph file or dataset.
int RunLocalMine(const FlagParser& flags) {
  auto loaded = LoadInputFull(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = loaded->graph;
  auto k = flags.GetInt("k", 2);
  auto q = flags.GetInt("q", 0);
  auto threads = flags.GetInt("threads", 0);
  auto tau = flags.GetDouble("tau-ms", 0.1);
  auto max_results = flags.GetInt("max-results", 0);
  auto time_limit = flags.GetDouble("time-limit", 0);
  for (const Status& s :
       {k.status(), q.status(), threads.status(), tau.status(),
        max_results.status(), time_limit.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (*q == 0) {
    std::fprintf(stderr, "--q is required (must be >= 2k - 1)\n");
    return 1;
  }

  const std::string algo = flags.GetString("algo", "ours");
  EnumOptions options;
  bool use_fp_driver = false;
  if (algo == "ours") {
    options = EnumOptions::Ours(*k, *q);
  } else if (algo == "ours_p") {
    options = EnumOptions::OursP(*k, *q);
  } else if (algo == "basic") {
    options = EnumOptions::Basic(*k, *q);
  } else if (algo == "listplex") {
    options = ListPlexOptions(*k, *q);
  } else if (algo == "fp") {
    options = EnumOptions::Ours(*k, *q);  // validated below; driver differs
    use_fp_driver = true;
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }
  options.max_results = static_cast<uint64_t>(*max_results);
  options.time_limit_seconds = *time_limit;
  options.use_ctcp_preprocess = flags.Has("ctcp");
  if (!loaded->precompute.empty()) {
    options.precompute = &loaded->precompute;
  }
  const std::string seed_range = flags.GetString("seed-range", "");
  if (!seed_range.empty()) {
    if (algo == "fp") {
      std::fprintf(stderr,
                   "--seed-range does not apply to the fp baseline\n");
      return 1;
    }
    auto parsed_range = ParseSeedRangeText(seed_range);
    if (!parsed_range.ok()) {
      std::fprintf(stderr, "%s\n",
                   parsed_range.status().ToString().c_str());
      return 1;
    }
    options.seed_range = *parsed_range;
  }

  const std::string output = flags.GetString("output", "");
  CountingSink counting;
  std::unique_ptr<FileSink> file_sink;
  ResultSink* sink = &counting;
  if (!output.empty()) {
    file_sink = std::make_unique<FileSink>(output);
    if (!file_sink->status().ok()) {
      std::fprintf(stderr, "%s\n", file_sink->status().ToString().c_str());
      return 1;
    }
    sink = file_sink.get();
  }

  StatusOr<EnumResult> result = Status::Internal("unreachable");
  if (use_fp_driver) {
    result = FpEnumerate(graph, static_cast<uint32_t>(*k),
                         static_cast<uint32_t>(*q), *sink);
  } else if (*threads > 0) {
    ParallelOptions parallel;
    parallel.num_threads = static_cast<uint32_t>(*threads);
    parallel.timeout_ms = *tau;
    result = ParallelEnumerateMaximalKPlexes(graph, options, parallel, *sink);
  } else {
    result = EnumerateMaximalKPlexes(graph, options, *sink);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (file_sink != nullptr) {
    Status io = file_sink->Finish();
    if (!io.ok()) {
      std::fprintf(stderr, "%s\n", io.ToString().c_str());
      return 1;
    }
  }
  std::printf("%llu maximal %lld-plexes with >= %lld vertices in %.3fs%s%s\n",
              static_cast<unsigned long long>(result->num_plexes),
              static_cast<long long>(*k), static_cast<long long>(*q),
              result->seconds, result->timed_out ? " (time limit hit)" : "",
              result->stopped_early ? " (result cap hit)" : "");
  if (!seed_range.empty()) {
    std::printf("seed shard %s of %llu total seeds (merge shards per "
                "docs/SHARDING.md)\n",
                seed_range.c_str(),
                static_cast<unsigned long long>(result->total_seeds));
  }
  std::printf("branch calls: %llu, sub-tasks: %llu (R1-pruned: %llu), "
              "ub-prunes: %llu\n",
              static_cast<unsigned long long>(result->counters.branch_calls),
              static_cast<unsigned long long>(result->counters.subtasks),
              static_cast<unsigned long long>(
                  result->counters.subtasks_pruned_r1),
              static_cast<unsigned long long>(result->counters.ub_prunes));
  if (result->counters.core_reductions_precomputed > 0) {
    std::printf("reduction served from snapshot sections (core%s)\n",
                result->counters.orderings_precomputed > 0 ? " + ordering"
                                                           : "");
  }
  if (!output.empty()) std::printf("results written to %s\n", output.c_str());
  return 0;
}

/// Flags every command accepts.
const std::vector<std::string>& GlobalFlags() {
  static const std::vector<std::string> flags = {"log-level", "log-json",
                                                 "trace", "metrics-dump"};
  return flags;
}

/// `mine` has four modes. Each refuses the flags only another mode
/// reads, the way Main refuses another command's flags: a --store on a
/// coordinated mine, or a --graph on a local one, is a mistake the user
/// should hear about, not a no-op.
int RunMine(const FlagParser& flags) {
  std::vector<std::string> accepted = {"k",           "q",          "algo",
                                       "threads",     "tau-ms",     "ctcp",
                                       "max-results", "time-limit"};
  accepted.insert(accepted.end(), GlobalFlags().begin(), GlobalFlags().end());
  const char* mode = nullptr;
  int (*run)(const FlagParser&) = nullptr;
  if (flags.Has("coordinator")) {
    mode = "mine --coordinator";
    accepted.insert(accepted.end(), {"coordinator", "graph", "io-timeout"});
    run = RunCoordinatorMine;
  } else if (flags.Has("endpoints")) {
    mode = "mine --endpoints";
    accepted.insert(accepted.end(), {"endpoints", "graph", "io-timeout"});
    run = RunEndpointsMine;
  } else if (flags.Has("store")) {
    mode = "mine --store";
    accepted.insert(accepted.end(), {"store", "store-budget-mb", "input",
                                     "dataset", "seed-range"});
    run = RunStoreMine;
  } else {
    mode = "a local mine (--input/--dataset)";
    accepted.insert(accepted.end(),
                    {"input", "dataset", "output", "seed-range"});
    run = RunLocalMine;
  }
  const std::vector<std::string> stray = flags.UnknownFlags(accepted);
  if (!stray.empty()) {
    std::fprintf(stderr, "--%s does not apply to %s\n",
                 stray.front().c_str(), mode);
    return 1;
  }
  return run(flags);
}

int RunMax(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto k = flags.GetInt("k", 2);
  if (!k.ok()) {
    std::fprintf(stderr, "%s\n", k.status().ToString().c_str());
    return 1;
  }
  auto result = FindMaximumKPlex(*graph, static_cast<uint32_t>(*k));
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!result->found) {
    std::printf("no %lld-plex with >= %lld vertices exists\n",
                static_cast<long long>(*k), static_cast<long long>(2 * *k - 1));
    return 0;
  }
  std::printf("maximum %lld-plex has %zu vertices (%u passes, %.3fs):\n",
              static_cast<long long>(*k), result->plex.size(), result->passes,
              result->seconds);
  for (std::size_t i = 0; i < result->plex.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : " ", result->plex[i]);
  }
  std::printf("\n");
  return 0;
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
  const std::string format = flags.GetString("format", "v2");
  if (format == "v1") {
    options.version = kSnapshotVersionLegacy;
  } else if (format != "v2") {
    std::fprintf(stderr, "--format must be v1 or v2, got '%s'\n",
                 format.c_str());
    return 1;
  }
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
  std::printf("snapshot (%s%s) of %zu vertices / %zu edges written to %s\n",
              format.c_str(),
              options.include_precompute ? ", precompute sections" : "",
              graph->NumVertices(), graph->NumEdges(), output.c_str());
  return 0;
}

#if defined(__unix__) || defined(__APPLE__)
// Self-pipe for signal-driven serve shutdown: the handler performs one
// async-signal-safe write; the serve loop blocks on the read end.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  // The return value is deliberately unused: the pipe being full means a
  // shutdown byte is already pending.
  [[maybe_unused]] ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}
#endif

int RunServe(const FlagParser& flags) {
  auto budget_mb = flags.GetInt("memory-budget-mb", 0);
  auto cache_capacity = flags.GetInt("cache-capacity", 64);
  auto workers = flags.GetInt("workers", 1);
  auto listen = flags.GetInt("listen", -1);
  auto max_connections = flags.GetInt("max-connections", 64);
  auto store_budget_mb = flags.GetInt("store-budget-mb", 0);
  for (const Status& s :
       {budget_mb.status(), cache_capacity.status(), workers.status(),
        listen.status(), max_connections.status(),
        store_budget_mb.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (*budget_mb < 0 || *cache_capacity < 0) {
    std::fprintf(stderr,
                 "--memory-budget-mb and --cache-capacity must be >= 0\n");
    return 1;
  }
  if (*workers < 1 || *workers > 1024) {
    std::fprintf(stderr, "--workers must be between 1 and 1024\n");
    return 1;
  }
  if (static_cast<uint64_t>(*budget_mb) > (SIZE_MAX >> 20)) {
    std::fprintf(stderr, "--memory-budget-mb %lld overflows the byte budget\n",
                 static_cast<long long>(*budget_mb));
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
  if (*store_budget_mb < 0) {
    std::fprintf(stderr, "--store-budget-mb must be >= 0\n");
    return 1;
  }
  if (store_dir.empty() && flags.Has("store-budget-mb")) {
    std::fprintf(stderr, "--store-budget-mb requires --store DIR\n");
    return 1;
  }

  ServiceApiOptions api_options;
  api_options.memory_budget_bytes =
      static_cast<std::size_t>(*budget_mb) * (std::size_t{1} << 20);
  api_options.result_cache_capacity =
      static_cast<std::size_t>(*cache_capacity);
  api_options.workers = static_cast<uint32_t>(*workers);
  api_options.store_dir = store_dir;
  api_options.store_byte_budget =
      static_cast<uint64_t>(*store_budget_mb) << 20;
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

#if !defined(__unix__) && !defined(__APPLE__)
  std::fprintf(stderr,
               "serve --listen requires POSIX sockets on this platform\n");
  return 1;
#else
  TcpServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*listen);
  server_options.max_connections = static_cast<uint32_t>(*max_connections);
  TcpServer server(api, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "cannot create the shutdown pipe\n");
    server.Stop();
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // The port line is machine-read by clients started with --listen 0
  // (CI smoke script): keep its shape stable and flush it immediately.
  std::printf("serving on %s:%u (protocol v%u, %lld workers)\n",
              server_options.host.c_str(), server.port(),
              kProtocolVersion, static_cast<long long>(*workers));
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.Stop();
  const TcpServer::Stats stats = server.stats();
  std::printf("serve: shutdown complete (%llu connections served, "
              "%llu refused)\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused));
  return 0;
#endif  // POSIX
}

/// The coordinator daemon (docs/SHARDING.md v2): a TCP server whose
/// sessions dispatch to one shared Coordinator instead of a ServiceApi.
/// Workers listed in --workers are registered up front; more can join
/// at runtime via `coordctl HOST:PORT register worker:port`.
int RunCoordinate(const FlagParser& flags) {
  auto listen = flags.GetInt("listen", -1);
  auto max_connections = flags.GetInt("max-connections", 64);
  auto chunks_per_worker = flags.GetInt("chunks-per-worker", 8);
  auto io_timeout = flags.GetDouble("io-timeout", 0);
  auto steal_min_ms = flags.GetDouble("steal-min-ms", 20.0);
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
  if (*io_timeout < 0 || *steal_min_ms < 0) {
    std::fprintf(stderr, "--io-timeout and --steal-min-ms must be >= 0\n");
    return 1;
  }

#if !defined(__unix__) && !defined(__APPLE__)
  std::fprintf(stderr,
               "coordinate requires POSIX sockets on this platform\n");
  return 1;
#else
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
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "cannot create the shutdown pipe\n");
    server.Stop();
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // The port line is machine-read by clients started with --listen 0
  // (CI smoke script): keep its shape stable and flush it immediately.
  std::printf("coordinating on %s:%u (protocol v%u, %zu workers "
              "registered)\n",
              server_options.host.c_str(), server.port(), kProtocolVersion,
              coordinator->Workers().size());
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.Stop();
  const TcpServer::Stats stats = server.stats();
  std::printf("coordinate: shutdown complete (%llu connections served, "
              "%llu refused)\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused));
  return 0;
#endif  // POSIX
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
  auto io_timeout = flags.GetDouble("io-timeout", 0);
  if (!io_timeout.ok() || *io_timeout < 0) {
    std::fprintf(stderr, "--io-timeout must be a number >= 0\n");
    return 1;
  }
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

  TcpClient client;
  Status connected =
      ConnectFramed(client, positional[1], *io_timeout,
                    kProtocolVersionCoordination, "the coordinator verbs");
  if (!connected.ok()) return Fail(connected);

  request->id = 2;
  Status sent = client.SendLine(FormatFramedRequest(*request));
  if (!sent.ok()) return Fail(sent);
  auto line = client.ReadLine();
  if (!line.ok()) return Fail(line.status());
  auto type = PeekFramedResponseType(*line);
  if (!type.ok()) {
    // An {"ok":false,...} frame parses as its embedded structured
    // status (and a malformed line as a parse error); either way the
    // raw frame goes to stderr and the exit code says "refused".
    std::fprintf(stderr, "%s\n", line->c_str());
    return 1;
  }
  std::printf("%s\n", line->c_str());
  return 0;
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
  auto io_timeout = flags.GetDouble("io-timeout", 5.0);
  if (!io_timeout.ok() || *io_timeout < 0) {
    std::fprintf(stderr, "--io-timeout must be a number >= 0\n");
    return 1;
  }

  TcpClient client;
  if (format == "json") {
    Status connected = ConnectFramed(client, endpoint, *io_timeout,
                                     /*min_version=*/3, "the metrics verb");
    if (!connected.ok()) return Fail(connected);
    Request request;
    request.id = 2;
    request.payload = MetricsRequest{};
    Status sent = client.SendLine(FormatFramedRequest(request));
    if (!sent.ok()) return Fail(sent);
    auto line = client.ReadLine();
    if (!line.ok()) return Fail(line.status());
    if (line->find("\"type\":\"error\"") != std::string::npos) {
      std::fprintf(stderr, "%s\n", line->c_str());
      return 1;
    }
    std::printf("%s\n", line->c_str());
    return 0;
  }

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

/// Builds the QueryRequest of a `query` invocation from its flags (the
/// selection surface of protocol v4: bodies, filters, top-K, maximum
/// mode, cursors). `graph` is the catalog name the request carries.
StatusOr<QueryRequest> BuildQueryRequest(const FlagParser& flags,
                                         const std::string& graph) {
  QueryRequest query;
  query.graph = graph;
  auto k = flags.GetInt("k", 2);
  auto q = flags.GetInt("q", 0);
  auto threads = flags.GetInt("threads", 0);
  auto max_results = flags.GetInt("max-results", 0);
  auto time_limit = flags.GetDouble("time-limit", 0);
  auto chunk = flags.GetInt("chunk", 0);
  auto top = flags.GetInt("top", 0);
  auto contain = flags.GetInt("contain", -1);
  auto min_size = flags.GetInt("min-size", 0);
  auto max_size = flags.GetInt("max-size", 0);
  for (const Status& s :
       {k.status(), q.status(), threads.status(), max_results.status(),
        time_limit.status(), chunk.status(), top.status(), contain.status(),
        min_size.status(), max_size.status()}) {
    if (!s.ok()) return s;
  }
  query.maximum = flags.Has("maximum");
  if (*q == 0 && !query.maximum) {
    return Status::InvalidArgument("--q is required (must be >= 2k - 1)");
  }
  query.k = static_cast<uint32_t>(*k);
  query.q = static_cast<uint32_t>(*q);
  query.threads = static_cast<uint32_t>(*threads);
  query.max_results = static_cast<uint64_t>(*max_results);
  query.time_limit_seconds = *time_limit;
  query.use_ctcp = flags.Has("ctcp");
  query.chunk_size = static_cast<uint32_t>(*chunk);
  query.top_k = static_cast<uint64_t>(*top);
  if (flags.Has("contain")) {
    if (*contain < 0) {
      return Status::InvalidArgument("--contain must be a vertex id >= 0");
    }
    query.has_contain = true;
    query.contain = static_cast<uint32_t>(*contain);
  }
  query.filter_min_size = static_cast<uint64_t>(*min_size);
  query.filter_max_size = static_cast<uint64_t>(*max_size);
  const std::string algo = flags.GetString("algo", "ours");
  auto parsed_algo = ParseQueryAlgo(algo);
  if (!parsed_algo.ok()) return parsed_algo.status();
  query.algo = *parsed_algo;
  const std::string cursor = flags.GetString("cursor", "");
  if (!cursor.empty()) {
    auto parsed_cursor = ParseCursorText(cursor);
    if (!parsed_cursor.ok()) return parsed_cursor.status();
    query.has_cursor = true;
    query.cursor_seed = parsed_cursor->seed;
    query.cursor_ordinal = parsed_cursor->ordinal;
  }
  // The query verb exists to show plexes: stream mode, top-K and
  // maximum mode all ask the server for bodies. A bare `query` (none of
  // the three) is a count-only probe.
  query.collect_bodies =
      flags.Has("stream") || query.top_k > 0 || query.maximum;
  return query;
}

void PrintPlexLine(const std::vector<VertexId>& plex) {
  for (std::size_t i = 0; i < plex.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : " ", plex[i]);
  }
  std::printf("\n");
}

/// `query` against a live `serve --listen` worker: framed protocol v4
/// streaming client. The chunk frames arrive before the verdict frame;
/// each plex prints as one line, then the summary (cursor included).
int RunRemoteQuery(const FlagParser& flags, const std::string& endpoint) {
  const std::string graph = flags.GetString("graph", "");
  if (graph.empty()) {
    std::fprintf(stderr, "--endpoint requires --graph NAME (the graph's "
                         "name in the worker's catalog)\n");
    return 1;
  }
  auto query = BuildQueryRequest(flags, graph);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto io_timeout = flags.GetDouble("io-timeout", 0);
  if (!io_timeout.ok() || *io_timeout < 0) {
    std::fprintf(stderr, "--io-timeout must be a number >= 0\n");
    return 1;
  }
  TcpClient client;
  Status connected =
      ConnectFramed(client, endpoint, *io_timeout, kProtocolVersionStreaming,
                    "streamed queries");
  if (!connected.ok()) return Fail(connected);

  Request request;
  request.id = 2;
  request.payload = MineRequest{*query};
  Status sent = client.SendLine(FormatFramedRequest(request));
  if (!sent.ok()) return Fail(sent);

  uint64_t streamed = 0;
  uint64_t expected_seq = 0;
  for (;;) {
    auto line = client.ReadLine();
    if (!line.ok()) {
      std::fprintf(stderr, "%s\n", line.status().ToString().c_str());
      return 1;
    }
    auto type = PeekFramedResponseType(*line);
    if (!type.ok()) {
      std::fprintf(stderr, "%s\n", type.status().ToString().c_str());
      return 1;
    }
    if (*type == "result_chunk") {
      auto chunk = ParseFramedResultChunk(*line);
      if (!chunk.ok()) {
        std::fprintf(stderr, "%s\n", chunk.status().ToString().c_str());
        return 1;
      }
      if (chunk->seq != expected_seq) {
        std::fprintf(stderr, "stream out of order: expected chunk %llu, "
                             "got %llu\n",
                     static_cast<unsigned long long>(expected_seq),
                     static_cast<unsigned long long>(chunk->seq));
        return 1;
      }
      ++expected_seq;
      for (const std::vector<VertexId>& plex : chunk->plexes) {
        PrintPlexLine(plex);
        ++streamed;
      }
      continue;
    }
    if (*type == "mine") {
      auto verdict = ParseFramedMineResult(*line);
      if (!verdict.ok()) {
        std::fprintf(stderr, "%s\n", verdict.status().ToString().c_str());
        return 1;
      }
      if (query->collect_bodies && verdict->bodies != streamed) {
        std::fprintf(stderr, "stream truncated: server buffered %llu "
                             "bodies but %llu arrived\n",
                     static_cast<unsigned long long>(verdict->bodies),
                     static_cast<unsigned long long>(streamed));
        return 1;
      }
      std::printf("query %s k=%u q=%u: %llu plexes, max size %llu, "
                  "fingerprint 0x%016llx, %.3fs%s%s%s",
                  graph.c_str(), query->k, query->q,
                  static_cast<unsigned long long>(verdict->plexes),
                  static_cast<unsigned long long>(verdict->max_size),
                  static_cast<unsigned long long>(verdict->fingerprint),
                  verdict->seconds, verdict->cached ? " [cached]" : "",
                  verdict->timed_out ? " [time limit hit]" : "",
                  verdict->stopped_early ? " [result cap hit]" : "");
      if (verdict->has_cursor) {
        std::printf(" [cursor %s]",
                    FormatCursorValue(verdict->cursor_seed,
                                      verdict->cursor_ordinal).c_str());
      }
      std::printf("\n");
      return verdict->state == "done" ? 0 : 1;
    }
    std::fprintf(stderr, "unexpected '%s' frame mid-stream\n",
                 type->c_str());
    return 1;
  }
}

/// `query` against a local graph file/dataset: same selection surface,
/// served by an in-process QueryEngine (no server round trip).
int RunLocalQuery(const FlagParser& flags) {
  auto loaded = LoadInput(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  GraphCatalog catalog;
  Status registered = catalog.RegisterGraph("input", *std::move(loaded));
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  auto query = BuildQueryRequest(flags, "input");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  QueryEngine engine(catalog, /*cache_capacity=*/0);
  auto result = engine.Run(*query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->plexes != nullptr) {
    for (const std::vector<VertexId>& plex : *result->plexes) {
      PrintPlexLine(plex);
    }
  }
  std::printf("query %s k=%u q=%u: %llu plexes, max size %zu, "
              "fingerprint 0x%016llx, %.3fs%s%s",
              flags.GetString("input", flags.GetString("dataset", "")).c_str(),
              query->k, query->q,
              static_cast<unsigned long long>(result->num_plexes),
              result->max_plex_size,
              static_cast<unsigned long long>(result->fingerprint),
              result->seconds,
              result->timed_out ? " [time limit hit]" : "",
              result->stopped_early ? " [result cap hit]" : "");
  if (result->has_cursor) {
    std::printf(" [cursor %s]",
                FormatCursorValue(result->cursor_seed,
                                  result->cursor_ordinal).c_str());
  }
  std::printf("\n");
  return 0;
}

int RunQuery(const FlagParser& flags) {
  const std::string endpoint = flags.GetString("endpoint", "");
  const bool local = flags.Has("input") || flags.Has("dataset");
  if (endpoint.empty() != local) {
    std::fprintf(stderr, "query needs exactly one of --endpoint host:port "
                         "(remote) or --input/--dataset (local)\n");
    return 1;
  }
  return endpoint.empty() ? RunLocalQuery(flags)
                          : RunRemoteQuery(flags, endpoint);
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
    known = {"input", "dataset", "k", "q", "algo", "threads", "tau-ms",
             "output", "max-results", "time-limit", "ctcp", "seed-range",
             "endpoints", "graph", "io-timeout", "coordinator", "store",
             "store-budget-mb"};
    run = RunMine;
  } else if (command == "max") {
    known = {"input", "dataset", "k"};
    run = RunMax;
  } else if (command == "report") {
    known = {"input", "dataset"};
    run = RunReport;
  } else if (command == "snapshot") {
    known = {"input", "dataset", "output", "precompute", "core-levels",
             "format"};
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
  } else if (command == "query") {
    known = {"endpoint", "graph", "input", "dataset", "k", "q", "algo",
             "threads", "max-results", "time-limit", "ctcp", "stream",
             "chunk", "top", "contain", "min-size", "max-size", "maximum",
             "cursor", "io-timeout"};
    run = RunQuery;
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
