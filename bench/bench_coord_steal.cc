// The coordinator against a single-process run, on two graphs.
//
// Skew: a dense Erdos-Renyi block glued to a long 4-regular ring. The
// ring survives the (q-k)-core reduction but emits nothing, and in
// degeneracy order its seeds come first, so an even seed split would
// hand essentially all real work to the last worker. Cost-planned
// chunks plus work stealing spread the dense blocks over all four
// workers.
//
// Uniform: BA(10000, 14) registered without snapshot sections. Per-seed
// work is small and even, so what decides the race is per-chunk
// overhead: each worker computes the reduction sections on its first
// chunk and every later chunk reuses them.
//
// Self-checked: every coordinated run must reproduce the single-process
// fingerprint exactly, and the coordinator must beat the single-process
// run by >= 2.5x on the skew graph and >= 1.2x on the uniform one, else
// exit 1. The speed bars need real cores: on a host with fewer than 4
// the workers time-slice one another and no scheduler can buy
// wall-clock — the bench then reports the numbers but enforces only
// exactness.

#include <cstdio>

#if !defined(__unix__) && !defined(__APPLE__)

int main() {
  std::printf("bench_coord_steal: POSIX sockets unavailable; skipping.\n");
  return 0;
}

#else

#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/harness.h"
#include "bench_common/table_printer.h"
#include "coord/coordinator.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "service/service_api.h"
#include "service/tcp_server.h"

namespace {

using namespace kplex;

constexpr uint32_t kK = 2;
constexpr uint32_t kQ = 5;
constexpr uint32_t kNumWorkers = 4;

/// Many disjoint dense blocks + one 4-regular ring (circulant +-1,
/// +-2). Ring degree 4 survives the 3-core at (k=2, q=5) yet yields
/// zero plexes: a 5-vertex 2-plex needs in-set degree >= 3 and ring
/// vertices have at most 2 in-set neighbors. Degeneracy peeling
/// removes the ring first, so every block seed lands at the END of the
/// canonical order, while the per-block granularity keeps the work
/// spread over many seeds (something chunked scheduling can split).
Graph BuildSkewAdversary(std::size_t blocks, std::size_t block_size,
                         std::size_t ring, uint64_t seed) {
  GraphBuilder builder(blocks * block_size + ring);
  for (std::size_t b = 0; b < blocks; ++b) {
    const Graph block = GenerateErdosRenyi(block_size, 0.35, seed + b);
    const VertexId offset = static_cast<VertexId>(b * block_size);
    for (VertexId u = 0; u < block.NumVertices(); ++u) {
      for (VertexId v : block.Neighbors(u)) {
        if (u < v) builder.AddEdge(offset + u, offset + v);
      }
    }
  }
  const VertexId base = static_cast<VertexId>(blocks * block_size);
  const VertexId n = static_cast<VertexId>(ring);
  for (VertexId i = 0; i < n; ++i) {
    builder.AddEdge(base + i, base + (i + 1) % n);
    builder.AddEdge(base + i, base + (i + 2) % n);
  }
  return builder.Build();
}

/// One in-process "worker process": its own ServiceApi behind its own
/// TCP server — what a separate `serve --listen` exposes.
struct Worker {
  Worker() {
    ServiceApiOptions options;
    options.workers = 2;
    api = std::make_shared<ServiceApi>(options);
    server = std::make_unique<TcpServer>(api, TcpServerOptions{});
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  std::shared_ptr<ServiceApi> api;
  std::unique_ptr<TcpServer> server;
};

std::string Hex(uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// One benchmark row: the coordinated run of `graph` next to its
/// single-process reference.
struct Row {
  std::string graph;
  RunOutcome single;
  CoordJobInfo coordinated;
  double required = 0;  ///< speedup bar enforced on >= kNumWorkers cores
};

}  // namespace

int main() {
  std::printf("== Coordinated mining vs a single-process run ==\n");
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("k=%u q=%u; %u workers, %u hardware threads.\n\n", kK, kQ,
              kNumWorkers, cores);

  const struct {
    const char* name;
    Graph graph;
    double required;
  } inputs[] = {
      {"skew", BuildSkewAdversary(24, 100, 3000, 17), 2.5},
      {"uniform", GenerateBarabasiAlbert(10000, 14, 1), 1.2},
  };

  std::vector<Worker> workers(kNumWorkers);
  for (auto& worker : workers) {
    for (const auto& input : inputs) {
      if (!worker.api->catalog().RegisterGraph(input.name, input.graph)
               .ok()) {
        std::fprintf(stderr, "failed to register %s\n", input.name);
        return 1;
      }
    }
    if (!worker.server->Start().ok()) {
      std::fprintf(stderr, "failed to start a worker\n");
      return 1;
    }
  }

  CoordinatorOptions options;
  options.chunks_per_worker = 8;
  options.steal_min_seconds = 0.05;
  Coordinator coordinator(options);
  for (const auto& worker : workers) {
    auto added = coordinator.AddWorker(worker.endpoint());
    if (!added.ok()) {
      std::fprintf(stderr, "register %s: %s\n", worker.endpoint().c_str(),
                   added.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<Row> rows;
  for (const auto& input : inputs) {
    Row row;
    row.graph = input.name;
    row.required = input.required;
    // Single-process reference: the fingerprint the coordinated run
    // must reproduce, and the baseline wall time.
    row.single = TimeAlgo(input.graph, MakeSequentialAlgo("Ours", kK, kQ));
    if (!row.single.ok) {
      std::fprintf(stderr, "single-process run failed: %s\n",
                   row.single.error.c_str());
      return 1;
    }
    QueryRequest query;
    query.graph = input.name;
    query.k = kK;
    query.q = kQ;
    query.use_cache = false;
    auto submitted = coordinator.Submit(query);
    if (!submitted.ok()) {
      std::fprintf(stderr, "submit: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    auto job = coordinator.Wait(*submitted);
    if (!job.ok() || job->state != "done") {
      std::fprintf(stderr, "coordination failed: %s\n",
                   job.ok() ? job->status.ToString().c_str()
                            : job.status().ToString().c_str());
      return 1;
    }
    row.coordinated = *std::move(job);
    rows.push_back(std::move(row));
  }
  coordinator.Stop();

  TablePrinter table({"graph", "mode", "seconds", "#plexes", "fingerprint",
                      "chunks", "steals", "vs single"});
  bool ok = true;
  for (const Row& row : rows) {
    const CoordJobInfo& job = row.coordinated;
    const double speedup =
        job.seconds > 0 ? row.single.seconds / job.seconds : 0;
    table.AddRow({row.graph, "single-process",
                  FormatSeconds(row.single.seconds),
                  FormatCount(row.single.num_plexes),
                  Hex(row.single.fingerprint), "-", "-", "1.00x"});
    table.AddRow({row.graph, "coordinated", FormatSeconds(job.seconds),
                  FormatCount(job.num_plexes), Hex(job.fingerprint),
                  std::to_string(job.chunks), std::to_string(job.steals),
                  FormatDouble(speedup, 2) + "x"});
    if (job.num_plexes != row.single.num_plexes ||
        job.fingerprint != row.single.fingerprint) {
      std::fprintf(stderr, "FINGERPRINT MISMATCH on %s\n",
                   row.graph.c_str());
      ok = false;
    }
    if (cores >= kNumWorkers && speedup < row.required) {
      std::fprintf(stderr,
                   "SPEEDUP TOO LOW on %s: %.2fx vs single process "
                   "(need >= %.1fx)\n",
                   row.graph.c_str(), speedup, row.required);
      ok = false;
    }
  }
  table.Print(std::cout);
  if (cores < kNumWorkers) {
    std::printf(
        "note: only %u hardware threads for %u workers — every mode\n"
        "serializes onto the same cores, so the speed bars are not\n"
        "enforced on this host (exactness still is).\n",
        cores, kNumWorkers);
  }
  std::printf("self-check: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

#endif  // POSIX sockets
