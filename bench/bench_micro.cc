// Microbenchmarks (google-benchmark) for the substrate the enumerators
// are built on: bitset kernels, degeneracy peeling, seed-subgraph
// construction, pair-matrix construction and upper-bound evaluation.
// These quantify the per-call costs the complexity analysis of
// Section 5 reasons about (e.g. the O(D) bound of Algorithm 4, or the
// extra O(|C| log |C|) the FP-style bound pays per recursion).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/enumerator.h"
#include "core/pair_matrix.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "core/subtask.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/bitset_kernels.h"
#include "util/rng.h"

namespace kplex {
namespace {

// ---- raw word-loop rows ----
//
// These benchmark the word loops directly (no DynamicBitset wrapper).
// Sizes are in bits.

std::vector<uint64_t> RandomWords(std::size_t words, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(words);
  for (auto& w : out) w = rng.Next();
  return out;
}

void BM_KernelAndCount(benchmark::State& state) {
  const std::size_t words = (state.range(0) + 63) / 64;
  const auto a = RandomWords(words, 11), b = RandomWords(words, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::AndCount(a.data(), b.data(), words));
  }
}
BENCHMARK(BM_KernelAndCount)->Arg(256)->Arg(1024)->Arg(8192);

void BM_KernelAndNotCount(benchmark::State& state) {
  const std::size_t words = (state.range(0) + 63) / 64;
  const auto a = RandomWords(words, 31), b = RandomWords(words, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::AndNotCount(a.data(), b.data(), words));
  }
}
BENCHMARK(BM_KernelAndNotCount)->Arg(1024)->Arg(8192);

void BM_KernelAndInto(benchmark::State& state) {
  const std::size_t words = (state.range(0) + 63) / 64;
  auto a = RandomWords(words, 41);
  const auto b = RandomWords(words, 42);
  for (auto _ : state) {
    kernels::AndInto(a.data(), b.data(), words);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelAndInto)->Arg(1024)->Arg(8192);

void BM_KernelSubset(benchmark::State& state) {
  const std::size_t words = (state.range(0) + 63) / 64;
  const auto b = RandomWords(words, 52);
  auto a = b;
  for (auto& w : a) w &= 0x5555555555555555ULL;  // a ⊆ b: no early exit
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::IsSubset(a.data(), b.data(), words));
  }
}
BENCHMARK(BM_KernelSubset)->Arg(1024)->Arg(8192);

void BM_BitsetAndCount(benchmark::State& state) {
  const std::size_t bits = state.range(0);
  DynamicBitset a(bits), b(bits);
  Rng rng(1);
  for (std::size_t i = 0; i < bits / 3; ++i) {
    a.Set(rng.NextBounded(bits));
    b.Set(rng.NextBounded(bits));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
}
BENCHMARK(BM_BitsetAndCount)->Arg(256)->Arg(1024)->Arg(8192);

void BM_BitsetForEachAnd(benchmark::State& state) {
  const std::size_t bits = state.range(0);
  DynamicBitset a(bits), b(bits);
  Rng rng(2);
  for (std::size_t i = 0; i < bits / 3; ++i) {
    a.Set(rng.NextBounded(bits));
    b.Set(rng.NextBounded(bits));
  }
  for (auto _ : state) {
    std::size_t sum = 0;
    a.ForEachAnd(b, [&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetForEachAnd)->Arg(1024)->Arg(8192);

void BM_DegeneracyPeeling(benchmark::State& state) {
  Graph g = GenerateBarabasiAlbert(state.range(0), 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDegeneracy(g).degeneracy);
  }
}
BENCHMARK(BM_DegeneracyPeeling)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_CoreReduction(benchmark::State& state) {
  Graph g = GenerateBarabasiAlbert(8000, 10, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceToCore(g, state.range(0)).graph.NumVertices());
  }
}
BENCHMARK(BM_CoreReduction)->Arg(4)->Arg(8)->Arg(12);

class SeedGraphFixture {
 public:
  static constexpr std::size_t kSeeds = 64;

  SeedGraphFixture() : graph_(GenerateBarabasiAlbert(2000, 18, 5)) {
    degeneracy_ = ComputeDegeneracy(graph_);
    // Keep the first kSeeds seeds whose subgraphs are viable for the
    // benchmark options (k=3, q=12), scanning from the dense end of the
    // peeling order.
    EnumOptions probe = EnumOptions::Ours(3, 12);
    for (std::size_t i = graph_.NumVertices();
         i-- > 0 && seeds_.size() < kSeeds;) {
      VertexId candidate = degeneracy_.order[i];
      if (BuildSeedGraph(graph_, {}, degeneracy_, candidate, probe, nullptr)
              .has_value()) {
        seeds_.push_back(candidate);
      }
    }
  }

  const Graph& graph() const { return graph_; }
  const DegeneracyResult& degeneracy() const { return degeneracy_; }

  /// The densest seed with a viable (non-pruned-away) seed subgraph.
  VertexId PickSeed() const { return seeds_.front(); }
  /// Every kept seed, densest first.
  const std::vector<VertexId>& seeds() const { return seeds_; }

 private:
  Graph graph_;
  DegeneracyResult degeneracy_;
  std::vector<VertexId> seeds_;
};

// Builds the fixture's seeds in turn: one seed rebuilt back to back
// reads the layout of that one build more than the builder's cost.
void BM_SeedGraphBuild(benchmark::State& state) {
  SeedGraphFixture fixture;
  EnumOptions options = EnumOptions::Ours(3, 12);
  options.use_pair_pruning_r2 = state.range(0) != 0;
  std::size_t next = 0;
  for (auto _ : state) {
    auto sg = BuildSeedGraph(fixture.graph(), {}, fixture.degeneracy(),
                             fixture.seeds()[next], options, nullptr);
    benchmark::DoNotOptimize(sg.has_value());
    if (++next == fixture.seeds().size()) next = 0;
  }
}
BENCHMARK(BM_SeedGraphBuild)->Arg(0)->Arg(1);  // 0: no T matrix, 1: with T

void BM_UpperBounds(benchmark::State& state) {
  SeedGraphFixture fixture;
  EnumOptions options = EnumOptions::Ours(3, 12);
  auto sg = BuildSeedGraph(fixture.graph(), {}, fixture.degeneracy(),
                           fixture.PickSeed(), options, nullptr);
  if (!sg.has_value()) {
    state.SkipWithError("no viable seed graph");
    return;
  }
  TaskState task = TaskState::MakeEmpty(*sg);
  task.AddToP(*sg, SeedGraph::kSeed);
  task.c.SetRange(1, 1 + sg->num_n1);
  const uint32_t pivot = static_cast<uint32_t>(task.c.FindFirst());
  task.c.Reset(pivot);

  BoundScratch scratch;
  const bool sorted = state.range(0) != 0;
  for (auto _ : state) {
    uint32_t ub = sorted ? UbSupportSorted(*sg, task, pivot, 3, scratch)
                         : UbSupport(*sg, task, pivot, 3, scratch);
    benchmark::DoNotOptimize(ub);
  }
}
BENCHMARK(BM_UpperBounds)->Arg(0)->Arg(1);  // 0: Theorem 5.5, 1: FP-sorted

void BM_SubtaskEnumeration(benchmark::State& state) {
  SeedGraphFixture fixture;
  EnumOptions options = EnumOptions::Ours(static_cast<uint32_t>(state.range(0)),
                                          12);
  auto sg = BuildSeedGraph(fixture.graph(), {}, fixture.degeneracy(),
                           fixture.PickSeed(), options, nullptr);
  if (!sg.has_value()) {
    state.SkipWithError("no viable seed graph");
    return;
  }
  for (auto _ : state) {
    AlgoCounters counters;
    uint64_t tasks = 0;
    EnumerateSubtasks(*sg, options, counters,
                      [&](TaskState&&) { ++tasks; });
    benchmark::DoNotOptimize(tasks);
  }
}
BENCHMARK(BM_SubtaskEnumeration)->Arg(2)->Arg(3)->Arg(4);

// ---- observability overhead (docs/OBSERVABILITY.md) ----
//
// The per-write costs of the live instruments, and a whole-enumeration
// run with the instrumentation active. Compiling the tree with
// -DKPLEX_OBS_NOOP turns every write below into nothing — comparing
// BM_EnumerateInstrumented across the two builds prices the layer
// end to end (the budget is <= 2% of enumeration time; the per-op rows
// show why: a relaxed fetch_add against enumeration's branch work).

void BM_MetricsCounterIncrement(benchmark::State& state) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("bench_counter_total");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("bench_histogram_seconds");
  double value = 1e-6;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value < 1.0 ? value * 1.01 : 1e-6;
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_EnumerateInstrumented(benchmark::State& state) {
  Graph g = GenerateBarabasiAlbert(3000, 10, 7);
  EnumOptions options = EnumOptions::Ours(2, 8);
  // A live progress hook through the throttle, like serve's jobs run.
  options.progress = [](uint64_t, uint64_t, uint64_t) {};
  for (auto _ : state) {
    CountingSink sink;
    auto result = EnumerateMaximalKPlexes(g, options, sink);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_EnumerateInstrumented);

}  // namespace
}  // namespace kplex

// Custom main so `bench_micro --json out.json` emits the kernel and
// enumeration rows as machine-readable JSON (google-benchmark's own
// JSON reporter under a stable spelling that scripts can rely on).
// All other flags pass through to the benchmark library untouched.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  storage.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      storage.emplace_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.emplace_back("--benchmark_out_format=json");
      ++i;
    } else {
      storage.emplace_back(argv[i]);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (auto& s : storage) args.push_back(s.data());
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
