// End-to-end tests of the coordinator (src/coord/): a coordinated
// chunked mine over in-process TCP workers must reproduce a
// single-process run bit-exactly; a cost-skewed seed space triggers
// work-stealing whose merged prefix + requeued tail stays exact; a
// worker killed mid-chunk is requeued on the survivor, and a lone
// worker's death fails the job; a timed-out chunk or a worker holding
// different bytes never merges; a worker that registers mid-job joins
// it; a repeated endpoint is one worker; and the CoordSession speaks
// the daemon verbs over a real socket.

#include "coord/coordinator.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_TEST_SOCKETS 1
#endif

#if KPLEX_TEST_SOCKETS

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coord/coord_session.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "service/service_api.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"

namespace kplex {
namespace {

/// One in-process "worker process": its own ServiceApi behind its own
/// TCP server — what a separate `serve --listen` process exposes.
struct Worker {
  explicit Worker(uint32_t dispatcher_workers = 2) {
    ServiceApiOptions options;
    options.workers = dispatcher_workers;
    api = std::make_shared<ServiceApi>(options);
    server = std::make_unique<TcpServer>(api, TcpServerOptions{});
  }

  Status StartWith(const std::string& name, Graph graph) {
    KPLEX_RETURN_IF_ERROR(
        api->catalog().RegisterGraph(name, std::move(graph)));
    return server->Start();
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  std::shared_ptr<ServiceApi> api;
  std::unique_ptr<TcpServer> server;
};

struct Reference {
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  std::size_t max_size = 0;
};

Reference FullRun(const Graph& graph, uint32_t k, uint32_t q) {
  HashingSink hashing;
  CountingSink counting;
  CallbackSink tee([&](std::span<const VertexId> plex) {
    hashing.Emit(plex);
    counting.Emit(plex);
  });
  auto result = EnumerateMaximalKPlexes(graph, EnumOptions::Ours(k, q), tee);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return Reference{counting.count(), hashing.fingerprint(),
                   counting.max_size()};
}

QueryRequest MakeQuery(uint32_t k, uint32_t q) {
  QueryRequest query;
  query.graph = "g";
  query.k = k;
  query.q = q;
  return query;
}

/// Submits `query` and blocks until its job is terminal.
CoordJobInfo SubmitAndWait(Coordinator& coordinator,
                           const QueryRequest& query) {
  auto id = coordinator.Submit(query);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {};
  auto job = coordinator.Wait(*id);
  EXPECT_TRUE(job.ok()) << job.status().ToString();
  return job.ok() ? *job : CoordJobInfo{};
}

/// Polls `worker` until it runs a chunk; false after two minutes.
bool WaitForRunningChunk(const Worker& worker) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const JobInfo& job : worker.api->dispatcher().Jobs()) {
      if (job.state == JobState::kRunning) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// A seed-cost adversary: a dense Erdos-Renyi block (expensive seeds)
/// glued to a long 4-regular ring whose seeds survive the (q-k)-core at
/// q=5 but emit nothing — hundreds of near-free seeds and a block
/// holding virtually all the work. `bicliques` disjoint K_{40,40}s add
/// seeds that the planner's (deg+1) x (coreness+1) estimate prices like
/// the block's but that cost nothing at k=2 q=5: a biclique has no
/// triangle, so Corollary 5.2 rejects each of its seeds at the N1 peel.
/// They draw the cost-planned cuts, so the block lands in about one
/// chunk, and that chunk is the straggler.
Graph BuildSkewedGraph(std::size_t dense, std::size_t ring, uint64_t seed,
                       std::size_t bicliques = 0) {
  constexpr VertexId kSide = 40;
  const Graph block = GenerateErdosRenyi(dense, 0.35, seed);
  GraphBuilder builder(dense + ring + bicliques * 2 * kSide);
  for (VertexId u = 0; u < block.NumVertices(); ++u) {
    for (VertexId v : block.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  VertexId base = static_cast<VertexId>(dense);
  const VertexId n = static_cast<VertexId>(ring);
  for (VertexId i = 0; i < n; ++i) {
    builder.AddEdge(base + i, base + (i + 1) % n);
    builder.AddEdge(base + i, base + (i + 2) % n);
  }
  base += n;
  for (std::size_t b = 0; b < bicliques; ++b, base += 2 * kSide) {
    for (VertexId i = 0; i < kSide; ++i) {
      for (VertexId j = 0; j < kSide; ++j) {
        builder.AddEdge(base + i, base + kSide + j);
      }
    }
  }
  return builder.Build();
}

TEST(Coordinator, ChunkedMineMatchesSingleProcessRun) {
  // Two inputs, an Erdos-Renyi and a Barabasi-Albert graph, mined at
  // different (k, q).
  const struct {
    Graph graph;
    uint32_t k, q;
  } datasets[] = {
      {GenerateErdosRenyi(220, 0.08, 11), 2, 5},
      {GenerateBarabasiAlbert(300, 8, 7), 2, 6},
  };
  for (const auto& dataset : datasets) {
    Worker a, b, c;
    ASSERT_TRUE(a.StartWith("g", dataset.graph).ok());
    ASSERT_TRUE(b.StartWith("g", dataset.graph).ok());
    ASSERT_TRUE(c.StartWith("g", dataset.graph).ok());
    const Reference reference = FullRun(dataset.graph, dataset.k, dataset.q);

    Coordinator coordinator;
    ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
    ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());
    ASSERT_TRUE(coordinator.AddWorker(c.endpoint()).ok());

    const CoordJobInfo job =
        SubmitAndWait(coordinator, MakeQuery(dataset.k, dataset.q));
    ASSERT_EQ(job.state, "done") << job.status.ToString();
    EXPECT_EQ(job.num_plexes, reference.count);
    EXPECT_EQ(job.fingerprint, reference.fingerprint);
    EXPECT_EQ(job.max_plex_size, reference.max_size);
    EXPECT_NE(job.content_hash, 0u);
    // Two-level scheduling: many more chunks than workers.
    EXPECT_GT(job.chunks, 3u);
    EXPECT_EQ(job.requeues, 0u);
    // The merged outcomes partition implies the counts add up.
    uint64_t outcome_sum = 0;
    for (const CoordChunkOutcome& outcome : job.outcomes) {
      outcome_sum += outcome.plexes;
    }
    EXPECT_EQ(outcome_sum, reference.count);
    // Every merged chunk ran on a registered worker.
    for (const CoordChunkOutcome& outcome : job.outcomes) {
      EXPECT_TRUE(outcome.endpoint == a.endpoint() ||
                  outcome.endpoint == b.endpoint() ||
                  outcome.endpoint == c.endpoint())
          << outcome.endpoint;
    }
  }
}

TEST(Coordinator, SkewedSeedCostsTriggerStealingAndStayExact) {
  // The bicliques draw the cost-planned cuts, so the dense block lands
  // in about one chunk and the other lanes go idle early — the
  // deterministic setup for a steal. The merged result must still be
  // bit-exact.
  const Graph graph = BuildSkewedGraph(95, 600, 17, /*bicliques=*/4);
  const Reference reference = FullRun(graph, 2, 5);

  Worker a, b, c, d;
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(worker->StartWith("g", graph).ok());
  }

  CoordinatorOptions options;
  options.chunks_per_worker = 2;
  options.steal_min_seconds = 0.0;
  Coordinator coordinator(options);
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(coordinator.AddWorker(worker->endpoint()).ok());
  }

  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  EXPECT_EQ(job->max_plex_size, reference.max_size);
  // Stealing split at least one straggler chunk: the yielded prefix
  // and its requeued tail both merged.
  EXPECT_GE(job->steals, 1u);
  bool saw_yielded_outcome = false;
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    saw_yielded_outcome = saw_yielded_outcome || outcome.yielded;
  }
  EXPECT_TRUE(saw_yielded_outcome);
}

TEST(Coordinator, StealsLandingInTheReductionStillFinish) {
  // Every chunk re-runs the reduction front half (a worker's first
  // chunk also builds the order and coreness sections), which on a long
  // ring outlasts a steal round trip. A steal that lands there covers
  // no seed; stealing that range again would repeat it forever.
  const Graph graph = BuildSkewedGraph(95, 100000, 17);
  const Reference reference = FullRun(graph, 2, 5);
  Worker a, b, c, d;
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(worker->StartWith("g", graph).ok());
  }
  CoordinatorOptions options;
  options.chunks_per_worker = 2;
  options.steal_min_seconds = 0.0;
  Coordinator coordinator(options);
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(coordinator.AddWorker(worker->endpoint()).ok());
  }
  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // The livelock shows as a job still running after two minutes; Stop
  // then fails it, so the test reports instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (coordinator.Jobs().front().state == "running" ||
         coordinator.Jobs().front().state == "queued") {
    if (std::chrono::steady_clock::now() > deadline) coordinator.Stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
}

TEST(Coordinator, KilledWorkerMidChunkRequeuesOnTheSurvivor) {
  // Slow enough (~2.5s single-threaded) that worker B is mid-chunk
  // when killed. Stop() closes B's sockets before cancelling its jobs,
  // so the lane observes a transport failure, requeues the chunk, and
  // the job completes exactly on A.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 3, 6);

  CoordinatorOptions options;
  options.chunks_per_worker = 4;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Kill B once it is running a chunk.
  ASSERT_TRUE(WaitForRunningChunk(b)) << "worker B never picked up a chunk";
  b.server->Stop();

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  EXPECT_EQ(job->max_plex_size, reference.max_size);
  EXPECT_GE(job->requeues, 1u);
  // B is dead in the roster; its chunk finished on A.
  for (const WorkerRecord& worker : coordinator.Workers()) {
    if (worker.endpoint == b.endpoint()) {
      EXPECT_EQ(worker.state, WorkerState::kDead);
    }
  }
}

TEST(Coordinator, LateRegisteredWorkerJoinsTheRunningJob) {
  Graph graph = GenerateBarabasiAlbert(1000, 12, 21);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 3, 6);

  CoordinatorOptions options;
  options.chunks_per_worker = 8;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Register B once A is actually mining, so B provably joins late.
  ASSERT_TRUE(WaitForRunningChunk(a)) << "worker A never picked up a chunk";
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  // The late joiner completed at least one chunk: with 8 chunks per
  // worker and seconds of work left, an idle lane cannot stay empty.
  bool b_participated = false;
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    b_participated = b_participated || outcome.endpoint == b.endpoint();
  }
  EXPECT_TRUE(b_participated);
}

TEST(Coordinator, LoneWorkerKilledMidChunkFailsWithIoError) {
  // With one worker, a transport failure leaves its requeued chunk no
  // lane to run on: the job fails with IO_ERROR instead of waiting.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker solo;
  ASSERT_TRUE(solo.StartWith("g", graph).ok());
  Coordinator coordinator;
  ASSERT_TRUE(coordinator.AddWorker(solo.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(WaitForRunningChunk(solo)) << "the worker never ran a chunk";
  solo.server->Stop();

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->state, "failed");
  EXPECT_EQ(job->status.code(), StatusCode::kIoError)
      << job->status.ToString();
}

TEST(Coordinator, TimedOutChunkNeverEntersTheMerge) {
  // A chunk cut short by the time limit is a partial answer: the job
  // fails and reports no merged total.
  Worker a;
  ASSERT_TRUE(a.StartWith("g", GenerateErdosRenyi(220, 0.08, 11)).ok());
  Coordinator coordinator;
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());

  QueryRequest query = MakeQuery(2, 4);
  query.time_limit_seconds = 1e-9;  // trips after the first seed
  const CoordJobInfo job = SubmitAndWait(coordinator, query);
  EXPECT_EQ(job.state, "failed");
  EXPECT_EQ(job.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(job.status.message().find("not a complete answer"),
            std::string::npos)
      << job.status.ToString();
  EXPECT_NE(job.status.message().find("time limit hit"), std::string::npos)
      << job.status.ToString();
  EXPECT_EQ(job.num_plexes, 0u);
  EXPECT_EQ(job.fingerprint, 0u);
  EXPECT_TRUE(job.outcomes.empty());
}

TEST(Coordinator, MismatchedWorkerNeverMergesAChunk) {
  // B holds different bytes under the same name. The probe runs on the
  // first-registered worker, so A's hash is the admission hash: B's
  // chunks are refused and requeued, B is retired, and the answer is
  // exactly A's single-process run.
  const Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", GenerateBarabasiAlbert(1000, 12, 10)).ok());
  const Reference reference = FullRun(graph, 2, 6);

  Coordinator coordinator;
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());
  const CoordJobInfo job = SubmitAndWait(coordinator, MakeQuery(2, 6));
  ASSERT_EQ(job.state, "done") << job.status.ToString();
  EXPECT_EQ(job.num_plexes, reference.count);
  EXPECT_EQ(job.fingerprint, reference.fingerprint);
  EXPECT_EQ(job.max_plex_size, reference.max_size);
  for (const CoordChunkOutcome& outcome : job.outcomes) {
    EXPECT_EQ(outcome.endpoint, a.endpoint());
  }
  EXPECT_GE(job.requeues, 1u);
  EXPECT_EQ(coordinator.Workers()[1].state, WorkerState::kDead);
}

TEST(Coordinator, UnknownGraphFailsWithNotFound) {
  Worker a;
  ASSERT_TRUE(a.StartWith("g", GenerateErdosRenyi(100, 0.1, 3)).ok());
  Coordinator coordinator;
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
  QueryRequest query = MakeQuery(2, 5);
  query.graph = "nope";
  const CoordJobInfo job = SubmitAndWait(coordinator, query);
  EXPECT_EQ(job.state, "failed");
  EXPECT_EQ(job.status.code(), StatusCode::kNotFound)
      << job.status.ToString();
}

TEST(Coordinator, UnreachableLoneWorkerIsAnIoError) {
  Coordinator coordinator;
  // Port 1 on loopback: reliably refused.
  ASSERT_TRUE(coordinator.AddWorker("127.0.0.1:1").ok());
  const CoordJobInfo job = SubmitAndWait(coordinator, MakeQuery(2, 5));
  EXPECT_EQ(job.state, "failed");
  EXPECT_EQ(job.status.code(), StatusCode::kIoError)
      << job.status.ToString();
}

TEST(Coordinator, FpBaselineIsRejectedAtSubmit) {
  Coordinator coordinator;
  QueryRequest query = MakeQuery(2, 5);
  query.algo = QueryAlgo::kFp;
  EXPECT_EQ(coordinator.Submit(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Coordinator, RepeatedEndpointIsOneWorkerAndStaysExact) {
  Graph graph = GenerateErdosRenyi(220, 0.08, 29);
  Worker solo(/*dispatcher_workers=*/4);
  ASSERT_TRUE(solo.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 2, 4);

  Coordinator coordinator;
  auto first = coordinator.AddWorker(solo.endpoint());
  auto second = coordinator.AddWorker(solo.endpoint());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(coordinator.Workers().size(), 1u);

  const CoordJobInfo job = SubmitAndWait(coordinator, MakeQuery(2, 4));
  ASSERT_EQ(job.state, "done") << job.status.ToString();
  EXPECT_EQ(job.num_plexes, reference.count);
  EXPECT_EQ(job.fingerprint, reference.fingerprint);
  EXPECT_EQ(job.max_plex_size, reference.max_size);
}

TEST(Coordinator, StructuralRefusals) {
  Coordinator coordinator;
  // No workers registered: the job fails structurally, not silently.
  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok());
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, "failed");
  EXPECT_EQ(job->status.code(), StatusCode::kFailedPrecondition);

  // A query carrying its own seed range is refused: the coordinator
  // owns the split.
  QueryRequest ranged = MakeQuery(2, 5);
  ranged.seed_begin = 0;
  ranged.seed_end = 10;
  EXPECT_EQ(coordinator.Submit(ranged).status().code(),
            StatusCode::kInvalidArgument);

  // Unknown job ids and endpoints.
  EXPECT_EQ(coordinator.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator.Heartbeat(999).code(), StatusCode::kNotFound);
  EXPECT_FALSE(coordinator.AddWorker("not-an-endpoint").ok());
  EXPECT_FALSE(coordinator.AddWorker("host:0").ok());
}

TEST(CoordSession, ServesTheDaemonVerbsOverTheWire) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 5);
  Worker worker;
  ASSERT_TRUE(worker.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 2, 5);

  auto coordinator = std::make_shared<Coordinator>();
  TcpServer daemon(
      [coordinator](std::ostream& out) -> std::unique_ptr<WireSession> {
        return std::make_unique<CoordSession>(out, coordinator);
      },
      [coordinator] { coordinator->Stop(); }, TcpServerOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  TcpClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", daemon.port(), /*timeout=*/30).ok());
  ASSERT_TRUE(client
                  .SendLine("hello proto=" +
                            std::to_string(kProtocolVersion) + " mode=framed")
                  .ok());
  auto hello = client.ReadLine();
  ASSERT_TRUE(hello.ok());
  auto negotiated = ParseFramedPayload<HelloResponse>(*hello);
  ASSERT_TRUE(negotiated.ok());
  EXPECT_EQ(negotiated->version, kProtocolVersion);

  // register the worker over the wire.
  Request reg;
  reg.id = 2;
  reg.payload = RegisterRequest{worker.endpoint()};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(reg)).ok());
  auto reg_line = client.ReadLine();
  ASSERT_TRUE(reg_line.ok());
  auto ack = ParseFramedPayload<WorkerAckResponse>(*reg_line);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->state, "idle");

  // mine end-to-end: the response is a plain mine verdict.
  Request mine;
  mine.id = 3;
  mine.payload = MineRequest{MakeQuery(2, 5)};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(mine)).ok());
  auto mine_line = client.ReadLine();
  ASSERT_TRUE(mine_line.ok());
  auto verdict = ParseFramedMineResult(*mine_line);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->state, "done");
  EXPECT_EQ(verdict->plexes, reference.count);
  EXPECT_EQ(verdict->fingerprint, reference.fingerprint);

  // Worker-holding verbs are refused by name.
  Request load;
  load.id = 4;
  load.payload = StatsRequest{};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(load)).ok());
  auto refused = client.ReadLine();
  ASSERT_TRUE(refused.ok());
  // Error frames parse as their embedded status, so peeking the type
  // must fail; the raw frame names the refused verb.
  EXPECT_FALSE(PeekFramedResponseType(*refused).ok());
  EXPECT_NE(refused->find("\"ok\":false"), std::string::npos) << *refused;
  EXPECT_NE(refused->find("not a coordinator command"), std::string::npos)
      << *refused;

  daemon.Stop();
}

}  // namespace
}  // namespace kplex

#else

namespace kplex {
TEST(Coordinator, SkippedWithoutPosixSockets) { GTEST_SKIP(); }
}  // namespace kplex

#endif  // KPLEX_TEST_SOCKETS
