// The three engine workloads: seq-branch, seq-seedgraph and par-skew.
// Each is a list of cells (registry recipe, k, q); a cell is an ensemble
// of graph instances generated from the run seed. One query is one pass
// over every cell, the analyst's whole question. The cost of one
// instance varies 10-30% between generator seeds on these heavy-tailed
// graphs, so cells sum several instances: that keeps mine_s steady
// across seeds without changing which layer dominates.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "bench_common/dataset_registry.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "parallel/parallel_enumerator.h"
#include "replay.h"
#include "util/memory.h"

namespace perfbench {
namespace {

using kplex::Graph;

/// A dataset-registry recipe with the generator seed left open.
struct Recipe {
  std::string name;
  std::function<Graph(uint64_t seed)> make;
};

Recipe Karate() {
  return {"karate", [](uint64_t) { return *kplex::LoadDataset("karate"); }};
}
Recipe JazzSyn() {
  return {"jazz-syn",
          [](uint64_t s) { return kplex::GenerateBarabasiAlbert(198, 14, s); }};
}
Recipe WikiVoteSyn() {
  return {"wiki-vote-syn",
          [](uint64_t s) { return kplex::GenerateBarabasiAlbert(1200, 18, s); }};
}
Recipe EnwikiSyn() {
  return {"enwiki-syn",
          [](uint64_t s) { return kplex::GenerateBarabasiAlbert(6000, 20, s); }};
}
Recipe SocPokecSyn() {
  return {"soc-pokec-syn",
          [](uint64_t s) { return kplex::GenerateBarabasiAlbert(8000, 12, s); }};
}
/// 12-regular ring lattice (Watts-Strogatz with beta 0): every seed runs
/// one tiny search, so the per-seed set-up cost is all that is left. The
/// lattice does not depend on the seed.
Recipe Ring(std::size_t n) {
  return {"ring" + std::to_string(n / 1000) + "k", [n](uint64_t s) {
            return kplex::GenerateWattsStrogatz(n, 12, 0.0, s);
          }};
}

struct Cell {
  Recipe recipe;
  uint32_t instances = 1;
  uint32_t k = 2;
  uint32_t q = 4;
};

struct EngineWorkload {
  bool parallel = false;
  std::vector<Cell> cells;
};

EngineWorkload Describe(const std::string& name, bool toy) {
  if (name == "seq-branch") {
    if (toy) return {false, {{Karate(), 1, 2, 6}, {JazzSyn(), 1, 3, 10}}};
    return {false,
            {{JazzSyn(), 20, 3, 10}, {WikiVoteSyn(), 1, 3, 11}}};
  }
  if (name == "seq-seedgraph") {
    if (toy) return {false, {{Ring(2000), 1, 2, 8}}};
    return {false,
            {{Ring(100000), 1, 2, 8},
             {EnwikiSyn(), 1, 2, 12},
             {SocPokecSyn(), 1, 3, 12}}};
  }
  if (toy) return {true, {{JazzSyn(), 1, 3, 10}}};
  return {true, {{EnwikiSyn(), 6, 3, 12}}};
}

struct Instance {
  std::string key;  ///< "<recipe>#<i>:k<k>q<q>", the expected.txt key
  Graph graph;
  kplex::EnumOptions options;
};

std::vector<Instance> Generate(const EngineWorkload& workload, uint64_t seed) {
  std::vector<Instance> instances;
  for (const Cell& cell : workload.cells) {
    for (uint32_t i = 0; i < cell.instances; ++i) {
      Instance instance;
      instance.key = cell.recipe.name + "#" + std::to_string(i) + ":k" +
                     std::to_string(cell.k) + "q" + std::to_string(cell.q);
      instance.graph = cell.recipe.make(DerivedSeed(seed, cell.recipe.name, i));
      instance.options = kplex::EnumOptions::Ours(cell.k, cell.q);
      instances.push_back(std::move(instance));
    }
  }
  return instances;
}

struct Outcome {
  Answer answer;
  kplex::AlgoCounters counters;
  std::string error;
};

Outcome Enumerate(const Instance& instance, bool parallel, uint32_t threads) {
  kplex::HashingSink sink;
  Outcome outcome;
  kplex::StatusOr<kplex::EnumResult> result = kplex::Status::Ok();
  if (parallel) {
    kplex::ParallelOptions parallel_options;
    parallel_options.num_threads = threads;
    parallel_options.timeout_ms = 0.1;
    result = kplex::ParallelEnumerateMaximalKPlexes(
        instance.graph, instance.options, parallel_options, sink);
  } else {
    result = kplex::EnumerateMaximalKPlexes(instance.graph, instance.options,
                                            sink);
  }
  if (!result.ok()) {
    outcome.error = result.status().ToString();
  } else {
    outcome.counters = result->counters;
  }
  outcome.answer = {sink.count(), sink.fingerprint()};
  return outcome;
}

/// One timed pass over every instance; the outcomes go to `outcomes`.
/// Pass `pass` runs a sequential instance i on CPU turn pass + i, and a
/// parallel pass on every CPU but turn `pass`, so over a run each
/// instance meets every CPU (see CpuTurns). Before each instance the
/// reference work runs, untimed, on the instance's CPU, or once on every
/// CPU before a parallel instance.
Round TimedPass(const std::vector<Instance>& instances, bool parallel,
                uint32_t threads, const CpuTurns& turns, std::size_t pass,
                std::vector<Outcome>& outcomes) {
  Round round;
  double pass_seconds = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (parallel) {
      const std::vector<double> millis = ReferenceOnEachCpu(turns);
      round.ref_ms.insert(round.ref_ms.end(), millis.begin(), millis.end());
      turns.AllBut(pass);
    } else {
      turns.Pin(pass + i);
      round.ref_ms.push_back(ReferenceMillis());
    }
    const int64_t start = NowNanos();
    outcomes.push_back(Enumerate(instances[i], parallel, threads));
    round.query_ms.push_back(SecondsSince(start) * 1e3);
    pass_seconds += round.query_ms.back() * 1e-3;
  }
  round.seconds = pass_seconds;
  round.queries = 1;
  return round;
}

/// A pass costed as the sum of each enumeration's fastest timed run (as
/// run.py costs a sequential mine_s; see README.md). Both sides of
/// parallel.speedup use it, so they compare like with like.
double BestPassSeconds(const std::vector<Round>& rounds) {
  double total = 0;
  for (std::size_t i = 0; i < rounds.front().query_ms.size(); ++i) {
    double fastest = rounds.front().query_ms[i];
    for (const Round& round : rounds) fastest = std::min(fastest, round.query_ms[i]);
    total += fastest * 1e-3;
  }
  return total;
}

}  // namespace

bool IsEngineWorkload(const std::string& name) {
  return name == "seq-branch" || name == "seq-seedgraph" || name == "par-skew";
}

RawRecord RunEngineWorkload(const RunOptions& options) {
  const EngineWorkload workload = Describe(options.workload, options.toy);
  RawRecord record;
  record.threads =
      workload.parallel ? std::max<uint32_t>(1, options.nproc - 1) : 1;

  // Set-up: generate every instance graph (see kSetupSeconds), each
  // repeat on the next CPU.
  const CpuTurns turns;
  std::vector<Instance> instances;
  for (const int64_t first = NowNanos();
       record.setup_s.size() < kSetupRepeats || SecondsSince(first) < kSetupSeconds;) {
    turns.Pin(record.setup_s.size());
    const int64_t start = NowNanos();
    instances = Generate(workload, options.seed);
    record.setup_s.push_back(SecondsSince(start));
  }
  turns.All();
  std::vector<CheckedQuery> queries;
  for (const Instance& instance : instances) {
    queries.push_back({instance.key, &instance.graph, instance.options.k,
                       instance.options.q});
  }
  if (!options.record_path.empty()) {
    if (!RecordAnswers(options, queries)) record.Fail("recording failed");
    return record;
  }

  // Untimed warm-up (see kWarmupSeconds).
  const int64_t warmup_start = NowNanos();
  for (std::size_t i = 0; i == 0 || SecondsSince(warmup_start) < kWarmupSeconds; ++i) {
    Enumerate(instances[i % instances.size()], workload.parallel, record.threads);
  }

  // Timed loop, tracing off. A traced run spends half its budget here
  // (for mine_s and the guard's reference) and half replaying. A traced
  // parallel run follows each parallel pass with a sequential one, so
  // both sides of parallel.speedup are costed by the same rule.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const int min_reps = options.trace ? 1 : 5;
  const bool time_sequential = options.trace && workload.parallel;
  std::vector<std::vector<Outcome>> reps;
  std::vector<Round> sequential_rounds;
  std::vector<double> spawns;
  const int64_t loop_start = NowNanos();
  while (static_cast<int>(reps.size()) < min_reps ||
         SecondsSince(loop_start) < budget) {
    std::vector<Outcome> outcomes;
    record.rounds.push_back(TimedPass(instances, workload.parallel, record.threads,
                                      turns, record.rounds.size(), outcomes));
    double rep_spawns = 0;
    for (const Outcome& outcome : outcomes) {
      rep_spawns += static_cast<double>(outcome.counters.timeout_spawns);
    }
    spawns.push_back(rep_spawns);
    reps.push_back(std::move(outcomes));
    if (time_sequential) {
      reps.emplace_back();
      sequential_rounds.push_back(TimedPass(instances, false, 1, turns,
                                            sequential_rounds.size(), reps.back()));
    }
  }
  record.peak_rss_kib = kplex::PeakRssKib();

  if (options.trace) {
    // The guard's reference is an untraced *sequential* run: the replay
    // mirrors the sequential driver, whose counters are deterministic.
    const std::vector<Outcome>& sequential =
        time_sequential ? reps[1] : reps.front();
    const double sequential_s =
        BestPassSeconds(time_sequential ? sequential_rounds : record.rounds);
    // Replays fill the rest of the budget, turning over the CPUs as the
    // untraced passes do; each instance reports its fastest replay.
    std::vector<LayerSpans> fastest(instances.size());
    const int64_t replay_start = NowNanos();
    for (std::size_t replay = 0;
         replay == 0 || SecondsSince(replay_start) < options.seconds / 2; ++replay) {
      for (std::size_t i = 0; i < instances.size(); ++i) {
        turns.Pin(replay + i);
        LayerSpans spans = TracedReplay(instances[i].graph, instances[i].options);
        if (!(spans.answer == sequential[i].answer) ||
            !SameCounters(spans.counters, sequential[i].counters)) {
          record.Fail("traced replay diverged from the untraced run on " +
                      instances[i].key);
        }
        if (replay == 0 || spans.total_s < fastest[i].total_s) {
          fastest[i] = std::move(spans);
        }
      }
    }
    LayerSpans total;
    for (const LayerSpans& spans : fastest) total.Add(spans);
    Json layers;
    layers.Begin();
    WriteReplay(layers, total, sequential_s);
    if (workload.parallel) {
      layers.Begin("parallel")
          .Num("sequential_s", sequential_s)
          .Num("parallel_s", BestPassSeconds(record.rounds))
          .Int("threads", record.threads)
          .Num("timeout_spawns", Quantile(spawns, 0.5))
          .End();
    }
    layers.End();
    record.layers_json = layers.str();
  }

  // Answer check, after all timing: every enumeration of every rep.
  turns.All();
  const std::map<std::string, Answer> reference =
      ReferenceAnswers(options, queries, record.errors);
  for (const std::vector<Outcome>& outcomes : reps) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ++record.attempted;
      auto it = reference.find(instances[i].key);
      if (!outcomes[i].error.empty()) {
        record.Fail(instances[i].key + ": " + outcomes[i].error);
      } else if (it == reference.end()) {
        record.Fail(instances[i].key + ": no reference answer");
      } else if (!(it->second == outcomes[i].answer)) {
        record.Fail(instances[i].key + ": wrong count or fingerprint");
      }
    }
  }
  return record;
}

}  // namespace perfbench
