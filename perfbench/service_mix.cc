// The service-mix workload: an in-process closed loop over the query
// service. nproc-1 clients each drive a framed-mode ServiceSession over
// one shared ServiceApi (dispatcher workers = clients, result store in
// the work directory), with graphs served from v2 snapshots that carry
// precompute sections. Each round starts from a fresh ServiceApi and an
// empty store, so a signature's first request enumerates and persists
// while its repeats hit the memory cache; a fresh ServiceApi over the
// same store, with its graphs loaded, then answers every signature once
// from disk (the restart phase). A round is the unit of mine_s and qps.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "replay.h"
#include "service/protocol.h"
#include "service/service_api.h"
#include "service/service_session.h"
#include "store/result_store.h"
#include "util/memory.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using kplex::Graph;

struct ServedGraph {
  std::string name;
  std::function<Graph(uint64_t seed)> make;
};

struct Signature {
  std::string graph;
  uint32_t k = 2;
  uint32_t q = 4;
  bool stream = false;
  std::string Key() const {
    return graph + ":k" + std::to_string(k) + "q" + std::to_string(q);
  }
};

// Registry recipes, generated with the run seed. Outside the toy mix
// they come from families whose enumeration cost barely moves between
// generator seeds (lattices, planted communities, and a sparse
// preferential-attachment graph whose cost is seed-graph set-up), so the
// cold latencies of one seed compare with another's.
std::vector<ServedGraph> Graphs(bool toy) {
  std::vector<ServedGraph> graphs = {
      {"com-dblp-syn", [](uint64_t s) {
         kplex::PlantedCommunityConfig config;
         config.num_communities = 120;
         config.community_size = 8;
         config.missing_per_vertex = 1;
         config.background_vertices = 600;
         config.noise_probability = 0.002;
         return kplex::GeneratePlantedCommunities(config, s).graph;
       }},
  };
  if (toy) {
    graphs.push_back({"jazz-syn", [](uint64_t s) {
                        return kplex::GenerateBarabasiAlbert(198, 14, s);
                      }});
    return graphs;
  }
  graphs.push_back({"soc-epinions-syn", [](uint64_t s) {
                      return kplex::GenerateBarabasiAlbert(3000, 10, s);
                    }});
  graphs.push_back({"amazon0505-syn", [](uint64_t s) {
                      return kplex::GenerateWattsStrogatz(4000, 8, 0.05, s);
                    }});
  graphs.push_back({"uk-2005-syn", [](uint64_t s) {
                      return kplex::GenerateWattsStrogatz(9000, 12, 0.08, s);
                    }});
  graphs.push_back({"arabic-syn", [](uint64_t s) {
                      kplex::PlantedCommunityConfig config;
                      config.num_communities = 200;
                      config.community_size = 12;
                      config.missing_per_vertex = 2;
                      config.background_vertices = 2000;
                      config.noise_probability = 0.001;
                      return kplex::GeneratePlantedCommunities(config, s).graph;
                    }});
  return graphs;
}

// In order of popularity. A round opens with every signature's first
// request, heaviest first, then repeats: each draws its class (plain or
// stream) and then a signature of that class with weight 1/(rank+1).
// The cold requests thus come at a fixed point, list-scheduled over the
// clients, and the repeats that follow run beside the last fsync'd cold
// writes; the seed moves the repeats, not the cold work. Cold requests
// cost 5-90 ms. Stream signatures return small bodies (tens to hundreds
// of plexes), so chunk framing is exercised without dominating a round.
std::vector<Signature> Signatures(bool toy) {
  if (toy) {
    return {{"jazz-syn", 3, 11, false}, {"com-dblp-syn", 2, 6, true},
            {"jazz-syn", 2, 8, false}};
  }
  return {
      {"uk-2005-syn", 2, 7, false},       {"uk-2005-syn", 3, 8, false},
      {"soc-epinions-syn", 2, 9, false},  {"uk-2005-syn", 2, 6, false},
      {"soc-epinions-syn", 2, 8, false},  {"soc-epinions-syn", 3, 11, false},
      {"soc-epinions-syn", 3, 12, false}, {"soc-epinions-syn", 3, 12, true},
      {"amazon0505-syn", 3, 6, false},    {"uk-2005-syn", 2, 8, false},
      {"uk-2005-syn", 3, 9, false},       {"arabic-syn", 2, 6, false},
      {"amazon0505-syn", 2, 5, false},    {"arabic-syn", 3, 7, false},
      {"arabic-syn", 3, 8, true},         {"amazon0505-syn", 3, 7, false},
      {"amazon0505-syn", 2, 6, false},    {"com-dblp-syn", 2, 4, false},
      {"com-dblp-syn", 2, 6, true},       {"com-dblp-syn", 2, 5, true},
  };
}

// The traffic shape is chosen, not measured: the repository holds no
// recorded query trace to fit it to. The Zipf(1) popularity, the stream
// share, the round length (20 cold requests in 1000, 2%) and the number
// of restarts per round are assumptions. Cold requests take about 95% of
// the clients' time in a round, so mine_s and qps mostly read the engine
// under the service; warm_p50_us and disk_p50_ms read its own paths.
constexpr double kStreamShare = 0.1;
constexpr std::size_t kRequestsPerRound = 1000;
constexpr int kRestartsPerRound = 3;

struct Setup {
  std::string dir;
  std::vector<Graph> graphs;  ///< same order as Graphs()
  std::vector<std::string> snapshot_paths;
};

/// Generates the graphs, writes each as a v2 snapshot with precompute
/// sections (degeneracy order, coreness and the core masks its
/// signatures need), and opens the first round's empty result store.
Setup MakeSetup(const RunOptions& options, const std::string& dir,
                RawRecord& record) {
  Setup setup;
  setup.dir = dir;
  std::filesystem::create_directories(dir);
  for (const ServedGraph& g : Graphs(options.toy)) {
    setup.graphs.push_back(g.make(DerivedSeed(options.seed, g.name, 0)));
    kplex::SnapshotWriteOptions write;
    write.include_precompute = true;
    for (const Signature& sig : Signatures(options.toy)) {
      if (sig.graph == g.name) write.core_mask_levels.push_back(sig.q - sig.k);
    }
    std::sort(write.core_mask_levels.begin(), write.core_mask_levels.end());
    write.core_mask_levels.erase(
        std::unique(write.core_mask_levels.begin(), write.core_mask_levels.end()),
        write.core_mask_levels.end());
    setup.snapshot_paths.push_back(dir + "/" + g.name + ".kpx");
    kplex::Status saved =
        kplex::SaveSnapshot(setup.graphs.back(), setup.snapshot_paths.back(), write);
    if (!saved.ok()) record.Fail("snapshot: " + saved.ToString());
  }
  auto store = kplex::ResultStore::Open({dir + "/store0", 0});
  if (!store.ok()) record.Fail("store: " + store.status().ToString());
  return setup;
}

std::shared_ptr<kplex::ServiceApi> MakeApi(const Setup& setup,
                                           const std::string& store_dir,
                                           uint32_t workers, bool toy,
                                           RawRecord& record) {
  kplex::ServiceApiOptions api_options;
  api_options.workers = workers;
  api_options.store_dir = store_dir;
  auto api = std::make_shared<kplex::ServiceApi>(api_options);
  if (!api->store_status().ok()) record.Fail("store: " + api->store_status().ToString());
  const std::vector<ServedGraph> served = Graphs(toy);
  for (std::size_t i = 0; i < served.size(); ++i) {
    kplex::Status status =
        api->catalog().RegisterFile(served[i].name, setup.snapshot_paths[i]);
    if (!status.ok()) record.Fail("register: " + status.ToString());
  }
  return api;
}

kplex::QueryRequest QueryFor(const Signature& sig) {
  kplex::QueryRequest query;
  query.graph = sig.graph;
  query.k = sig.k;
  query.q = sig.q;
  query.collect_bodies = sig.stream;
  return query;
}

std::string FramedMine(uint64_t id, const Signature& sig) {
  kplex::Request request;
  request.id = id;
  request.payload = kplex::MineRequest{QueryFor(sig)};
  return kplex::FormatFramedRequest(request);
}

/// The seeded request sequence (see Signatures).
std::vector<std::size_t> RequestSequence(const std::vector<Signature>& sigs,
                                         std::size_t length, uint64_t seed) {
  kplex::Rng rng(DerivedSeed(seed, "service-mix", 0));
  std::vector<std::size_t> sequence, plain, stream;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    sequence.push_back(i);
    (sigs[i].stream ? stream : plain).push_back(i);
  }
  auto zipf = [&](const std::vector<std::size_t>& ids) {
    double total = 0;
    for (std::size_t r = 0; r < ids.size(); ++r) total += 1.0 / (r + 1);
    double u = rng.NextDouble() * total;
    for (std::size_t r = 0; r < ids.size(); ++r) {
      u -= 1.0 / (r + 1);
      if (u < 0) return ids[r];
    }
    return ids.back();
  };
  while (sequence.size() < length) {
    sequence.push_back(rng.NextDouble() < kStreamShare ? zipf(stream) : zipf(plain));
  }
  return sequence;
}

/// One reply, decoded right after its round so a run holds no reply
/// text beyond one round.
struct Reply {
  std::size_t signature = 0;
  double latency_s = 0;
  std::string error;  ///< decode failure, or a non-done verdict
  bool cached = false;
  Answer verdict;
  std::optional<Answer> bodies;  ///< reassembled stream, when streamed
};

Reply Decode(std::size_t signature, double latency_s, const std::string& text,
             uint64_t id) {
  Reply reply;
  reply.signature = signature;
  reply.latency_s = latency_s;
  std::istringstream lines(text);
  std::string line;
  kplex::HashingSink bodies;
  bool chunked = false, have_verdict = false;
  while (std::getline(lines, line)) {
    auto type = kplex::PeekFramedResponseType(line);
    if (!type.ok()) {
      reply.error = type.status().ToString();
      return reply;
    }
    if (*type == "result_chunk") {
      auto chunk = kplex::ParseFramedResultChunk(line);
      if (!chunk.ok()) {
        reply.error = chunk.status().ToString();
        return reply;
      }
      for (const auto& plex : chunk->plexes) bodies.Emit(plex);
      chunked = true;
      continue;
    }
    auto verdict = kplex::ParseFramedMineResult(line);
    if (!verdict.ok()) {
      reply.error = verdict.status().ToString();
      return reply;
    }
    if (verdict->request_id != id || verdict->state != "done") {
      reply.error = "request " + std::to_string(id) + " ended " + verdict->state;
      return reply;
    }
    reply.cached = verdict->cached;
    reply.verdict = {verdict->plexes, verdict->fingerprint};
    have_verdict = true;
  }
  if (!have_verdict) reply.error = "no verdict frame for request " + std::to_string(id);
  if (chunked) reply.bodies = Answer{bodies.count(), bodies.fingerprint()};
  return reply;
}

/// One closed-loop round: `clients` threads pull the next request line
/// and time it from request line in to reply out.
std::vector<Reply> ClosedLoop(const std::shared_ptr<kplex::ServiceApi>& api,
                              const std::vector<std::string>& lines,
                              const std::vector<std::size_t>& sequence,
                              uint32_t clients, uint64_t* reply_bytes) {
  std::vector<std::string> texts(lines.size());
  std::vector<double> latencies(lines.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::ostringstream out;
      kplex::ServiceSession session(out, api);
      session.ExecuteLine("hello proto=6 mode=framed");
      for (std::size_t i = next++; i < lines.size(); i = next++) {
        out.str("");
        const int64_t start = NowNanos();
        session.ExecuteLine(lines[i]);
        latencies[i] = SecondsSince(start);
        texts[i] = out.str();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Reply> replies;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (reply_bytes != nullptr) *reply_bytes += texts[i].size();
    replies.push_back(Decode(sequence[i], latencies[i], texts[i], i + 1));
  }
  return replies;
}

template <typename Fn>
double MedianMicros(int passes, Fn&& fn) {
  std::vector<double> samples;
  for (int p = 0; p < passes; ++p) {
    const int64_t start = NowNanos();
    fn();
    samples.push_back(SecondsSince(start) * 1e6);
  }
  return Quantile(samples, 0.5);
}

/// Compares a decoded reply with the reference; empty when right.
std::string Check(const Reply& reply, const Signature& sig,
                  const std::map<std::string, Answer>& reference) {
  if (!reply.error.empty()) return reply.error;
  auto it = reference.find(sig.Key());
  if (it == reference.end()) return "no reference answer for " + sig.Key();
  if (!(reply.verdict == it->second)) return sig.Key() + ": wrong count or fingerprint";
  if (sig.stream && !(reply.bodies == it->second)) {
    return sig.Key() + ": streamed bodies do not reassemble the answer";
  }
  return "";
}

}  // namespace

RawRecord RunServiceMix(const RunOptions& options) {
  RawRecord record;
  const uint32_t clients = std::max<uint32_t>(1, options.nproc - 1);
  record.threads = clients;
  const std::vector<Signature> sigs = Signatures(options.toy);
  const std::vector<ServedGraph> served = Graphs(options.toy);
  auto graph_index = [&](const std::string& name) {
    std::size_t i = 0;
    while (served[i].name != name) ++i;
    return i;
  };

  // Set-up: generate, snapshot and open the store (see kSetupSeconds);
  // each repetition rewrites the same files, on the next CPU.
  const CpuTurns turns;
  Setup setup;
  for (const int64_t first = NowNanos();
       record.setup_s.size() < kSetupRepeats || SecondsSince(first) < kSetupSeconds;) {
    turns.Pin(record.setup_s.size());
    const int64_t start = NowNanos();
    setup = MakeSetup(options, options.workdir + "/setup", record);
    record.setup_s.push_back(SecondsSince(start));
  }
  turns.All();

  std::vector<CheckedQuery> queries;
  for (const Signature& sig : sigs) {
    if (std::none_of(queries.begin(), queries.end(),
                     [&](const CheckedQuery& q) { return q.key == sig.Key(); })) {
      queries.push_back({sig.Key(), &setup.graphs[graph_index(sig.graph)], sig.k, sig.q});
    }
  }
  if (!options.record_path.empty()) {
    if (!RecordAnswers(options, queries)) record.Fail("recording failed");
    return record;
  }

  const std::size_t length = options.toy ? 40 : kRequestsPerRound;
  const std::vector<std::size_t> sequence =
      RequestSequence(sigs, length, options.seed);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    lines.push_back(FramedMine(i + 1, sigs[sequence[i]]));
  }
  std::vector<std::size_t> restart_order(sigs.size());
  std::vector<std::string> restart_lines;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    restart_order[i] = i;
    restart_lines.push_back(FramedMine(i + 1, sigs[i]));
  }

  // Untimed warm-up rounds first (see kWarmupSeconds).
  for (const int64_t start = NowNanos(); SecondsSince(start) < kWarmupSeconds;) {
    const std::string store_dir = setup.dir + "/warmup";
    ClosedLoop(MakeApi(setup, store_dir, clients, options.toy, record), lines,
               sequence, clients, nullptr);
    std::filesystem::remove_all(store_dir);
  }

  struct TimedRound {
    double seconds = 0;
    std::vector<double> ref_ms;
    std::vector<Reply> loop;
    std::vector<Reply> restart;
  };
  std::vector<TimedRound> rounds;
  uint64_t hits = 0, lookups = 0, reply_bytes = 0, replies = 0;
  std::shared_ptr<kplex::ServiceApi> restarted;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const int min_rounds = options.trace ? 1 : 5;
  const int64_t loop_start = NowNanos();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         SecondsSince(loop_start) < budget) {
    const std::string store_dir = setup.dir + "/store" + std::to_string(rounds.size());
    restarted.reset();  // one ServiceApi at a time, as in a real process
    // The reference work runs once on every CPU (untimed here); then
    // every thread of the round (clients, dispatcher workers) runs on
    // every CPU but this round's turn (see CpuTurns).
    TimedRound round;
    round.ref_ms = ReferenceOnEachCpu(turns);
    turns.AllBut(rounds.size());
    {
      auto api = MakeApi(setup, store_dir, clients, options.toy, record);
      const int64_t start = NowNanos();
      round.loop = ClosedLoop(api, lines, sequence, clients, &reply_bytes);
      round.seconds = SecondsSince(start);
      replies += lines.size();
      const auto stats = api->engine().cache_stats();
      hits += stats.hits;
      lookups += stats.hits + stats.misses;
    }
    // Restarts: each a fresh ServiceApi over the same store, its graphs
    // loaded and hashed as a server does at start-up, answering every
    // signature once. The catalog load itself is catalog.load_ms.
    for (int restart = 0; restart < kRestartsPerRound; ++restart) {
      restarted = MakeApi(setup, store_dir, clients, options.toy, record);
      for (const ServedGraph& g : served) {
        if (!restarted->catalog().ContentHash(g.name).ok()) {
          record.Fail("restart load of " + g.name);
        }
      }
      std::vector<Reply> answered =
          ClosedLoop(restarted, restart_lines, restart_order, 1, nullptr);
      round.restart.insert(round.restart.end(), answered.begin(), answered.end());
    }
    rounds.push_back(std::move(round));
    if (rounds.size() > 1) {
      std::filesystem::remove_all(setup.dir + "/store" +
                                  std::to_string(rounds.size() - 2));
    }
  }
  record.peak_rss_kib = kplex::PeakRssKib();
  turns.All();

  // Every round replays the same requests from the same empty state, so
  // each request position is one piece of fixed work repeated once per
  // round; the raw record keeps every latency in position order and
  // run.py takes each position's fastest round. The first sigs.size()
  // requests are the signatures' first (cold) requests; the repeats are
  // memory-cache hits, or single-flight waits behind a cold request.
  const std::map<std::string, Answer> reference =
      ReferenceAnswers(options, queries, record.errors);
  for (const TimedRound& round : rounds) {
    Round& timed = record.rounds.emplace_back();
    timed.seconds = round.seconds;
    timed.ref_ms = round.ref_ms;
    timed.queries = static_cast<double>(round.loop.size());
    for (std::size_t i = 0; i < round.loop.size(); ++i) {
      const Reply& reply = round.loop[i];
      ++record.attempted;
      const std::string error = Check(reply, sigs[reply.signature], reference);
      if (!error.empty()) record.Fail(error);
      timed.query_ms.push_back(reply.latency_s * 1e3);
      if (i < sigs.size()) {
        timed.cold_ms.push_back(reply.latency_s * 1e3);
      } else {
        timed.warm_us.push_back(reply.latency_s * 1e6);
      }
    }
    for (const Reply& reply : round.restart) {
      ++record.attempted;
      const std::string error = Check(reply, sigs[reply.signature], reference);
      if (!error.empty()) {
        record.Fail(error);
      } else if (!reply.cached) {
        record.Fail(sigs[reply.signature].Key() +
                    ": restart request was not served from the store");
      }
      timed.disk_ms.push_back(reply.latency_s * 1e3);
    }
  }

  if (!options.trace) return record;

  // ---- Traced run: each service layer timed through its public calls.
  kplex::ServiceApi& api = *restarted;
  kplex::GraphCatalog& catalog = api.catalog();
  kplex::ResultStore* store = api.store();
  auto scratch = kplex::ResultStore::Open({setup.dir + "/put-store", 0});
  if (!scratch.ok()) record.Fail("scratch store: " + scratch.status().ToString());
  std::vector<double> parse_us, format_us, hit_us, get_us, put_ms, load_ms, hash_ms;
  for (const std::string& line : lines) {
    const int64_t start = NowNanos();
    auto parsed = kplex::ParseFramedRequest(line);
    parse_us.push_back(SecondsSince(start) * 1e6);
    if (!parsed.ok()) record.Fail("parse: " + parsed.status().ToString());
  }
  for (std::size_t s = 0; s < sigs.size(); ++s) {
    kplex::Request request;
    request.id = s + 1;
    request.payload = kplex::MineRequest{QueryFor(sigs[s])};
    const kplex::Response response = api.Execute(request);
    format_us.push_back(MedianMicros(
        50, [&] { (void)kplex::FormatFramedResponse(response); }));
    kplex::StatusOr<kplex::QueryResult> warm = kplex::Status::Ok();
    hit_us.push_back(MedianMicros(
        50, [&] { warm = api.engine().Run(QueryFor(sigs[s])); }));
    if (!warm.ok() || !warm->from_cache) {
      record.Fail(sigs[s].Key() + ": engine hit timing missed the cache");
      continue;
    }
    auto hash = catalog.ContentHash(sigs[s].graph);
    if (store == nullptr || !hash.ok() || !scratch.ok()) {
      record.Fail("store timing: no store or content hash");
      continue;
    }
    const kplex::StoreKey key{*hash, warm->signature};
    std::optional<kplex::StoredResult> stored;
    get_us.push_back(MedianMicros(10, [&] { stored = store->Get(key); }));
    if (!stored.has_value()) {
      record.Fail(sigs[s].Key() + ": store get missed");
      continue;
    }
    put_ms.push_back(
        MedianMicros(5, [&] { (void)(*scratch)->Put(key, *stored); }) * 1e-3);
  }
  for (const ServedGraph& g : served) {
    for (int pass = 0; pass < 3; ++pass) {
      (void)catalog.Evict(g.name);
      int64_t start = NowNanos();
      auto loaded = catalog.GetFull(g.name);
      load_ms.push_back(SecondsSince(start) * 1e3);
      start = NowNanos();
      auto hash = catalog.ContentHash(g.name);
      hash_ms.push_back(SecondsSince(start) * 1e3);
      if (!loaded.ok() || !hash.ok()) record.Fail("catalog reload of " + g.name);
    }
  }

  // Engine layers: replay each distinct enumeration sequentially over
  // the snapshot's precompute sections, as the cold requests ran.
  LayerSpans total;
  double untraced_s = 0;
  for (const CheckedQuery& query : queries) {
    const std::size_t g = static_cast<std::size_t>(query.graph - setup.graphs.data());
    auto snapshot = kplex::LoadSnapshotFull(setup.snapshot_paths[g]);
    if (!snapshot.ok()) {
      record.Fail("replay load: " + snapshot.status().ToString());
      continue;
    }
    kplex::EnumOptions enum_options = kplex::EnumOptions::Ours(query.k, query.q);
    enum_options.precompute = &snapshot->precompute;
    kplex::HashingSink sink;
    const int64_t start = NowNanos();
    auto untraced = kplex::EnumerateMaximalKPlexes(snapshot->graph, enum_options, sink);
    untraced_s += SecondsSince(start);
    LayerSpans spans = TracedReplay(snapshot->graph, enum_options);
    if (!untraced.ok() || !(spans.answer == Answer{sink.count(), sink.fingerprint()}) ||
        !SameCounters(spans.counters, untraced->counters)) {
      record.Fail("traced replay diverged from the untraced run on " + query.key);
    }
    total.Add(spans);
  }

  Json layers;
  layers.Begin();
  WriteReplay(layers, total, untraced_s);
  layers.Begin("service")
      .Num("parse_us", Quantile(parse_us, 0.5))
      .Num("format_us", Quantile(format_us, 0.5))
      .Num("reply_bytes", replies ? static_cast<double>(reply_bytes) / replies : 0)
      .Num("load_ms", Quantile(load_ms, 0.5))
      .Num("hash_ms", Quantile(hash_ms, 0.5))
      .Num("hit_rate", lookups ? static_cast<double>(hits) / lookups : 0)
      .Num("hit_us", Quantile(hit_us, 0.5))
      .Num("get_us", Quantile(get_us, 0.5))
      .Num("put_ms", Quantile(put_ms, 0.5))
      .End();
  layers.End();
  record.layers_json = layers.str();
  return record;
}

}  // namespace perfbench
