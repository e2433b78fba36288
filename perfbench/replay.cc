#include "replay.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <type_traits>

#include "core/branch.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "core/subtask.h"

namespace perfbench {
namespace {

using kplex::VertexId;

// ResultSink::Emit timed from outside: one span per emitted plex.
class TimedSink : public kplex::ResultSink {
 public:
  void Emit(std::span<const VertexId> plex) override {
    const int64_t start = NowNanos();
    inner_.Emit(plex);
    nanos_ += NowNanos() - start;
    ++emits_;
  }
  const kplex::HashingSink& inner() const { return inner_; }
  int64_t nanos() const { return nanos_; }
  uint64_t emits() const { return emits_; }

 private:
  kplex::HashingSink inner_;
  int64_t nanos_ = 0;
  uint64_t emits_ = 0;
};

}  // namespace

void LayerSpans::Add(const LayerSpans& other) {
  counters.MergeFrom(other.counters);
  total_s += other.total_s;
  reduction_s += other.reduction_s;
  seed_graph_s += other.seed_graph_s;
  subtask_s += other.subtask_s;
  branch_s += other.branch_s;
  sink_s += other.sink_s;
  sink_emits += other.sink_emits;
  graph_vertices += other.graph_vertices;
  core_vertices += other.core_vertices;
  seeds += other.seeds;
  seeds_built += other.seeds_built;
  seed_graph_us.insert(seed_graph_us.end(), other.seed_graph_us.begin(),
                       other.seed_graph_us.end());
  seed_cost_us.insert(seed_cost_us.end(), other.seed_cost_us.begin(),
                      other.seed_cost_us.end());
}

LayerSpans TracedReplay(const kplex::Graph& graph,
                        const kplex::EnumOptions& options) {
  LayerSpans spans;
  TimedSink sink;
  const int64_t start = NowNanos();
  kplex::PreparedReduction prepared =
      kplex::PrepareReduction(graph, options, spans.counters);
  spans.reduction_s = SecondsSince(start);
  spans.graph_vertices = graph.NumVertices();
  const kplex::Graph& core = prepared.core.graph;
  spans.core_vertices = core.NumVertices();

  int64_t subtask_nanos = 0;
  int64_t run_nanos = 0;
  int64_t build_nanos = 0;
  for (uint32_t idx = 0; idx < core.NumVertices(); ++idx) {
    const int64_t seed_start = NowNanos();
    std::optional<kplex::SeedGraph> sg = kplex::BuildSeedGraph(
        core, prepared.core.to_original, prepared.ordering,
        prepared.ordering.order[idx], options, &spans.counters);
    const int64_t built = NowNanos();
    build_nanos += built - seed_start;
    spans.seed_graph_us.push_back((built - seed_start) * 1e-3);
    ++spans.seeds;
    if (sg.has_value()) {
      ++spans.seeds_built;
      kplex::BranchEngine engine(*sg, options, sink, spans.counters);
      int64_t inner = 0;
      kplex::EnumerateSubtasks(*sg, options, spans.counters,
                               [&](kplex::TaskState&& task) {
                                 const int64_t run_start = NowNanos();
                                 engine.Run(task);
                                 inner += NowNanos() - run_start;
                               });
      subtask_nanos += NowNanos() - built - inner;
      run_nanos += inner;
    }
    spans.seed_cost_us.push_back((NowNanos() - seed_start) * 1e-3);
  }
  spans.total_s = SecondsSince(start);
  spans.seed_graph_s = build_nanos * 1e-9;
  spans.subtask_s = subtask_nanos * 1e-9;
  spans.sink_s = sink.nanos() * 1e-9;
  spans.branch_s = (run_nanos - sink.nanos()) * 1e-9;
  spans.sink_emits = sink.emits();
  spans.answer = {sink.inner().count(), sink.inner().fingerprint()};
  return spans;
}

bool SameCounters(const kplex::AlgoCounters& a, const kplex::AlgoCounters& b) {
  // Byte comparison covers every field, including ones added later.
  static_assert(std::has_unique_object_representations_v<kplex::AlgoCounters>);
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void WriteReplay(Json& json, const LayerSpans& spans, double untraced_s) {
  json.Begin("replay")
      .Num("total_s", spans.total_s)
      .Num("untraced_s", untraced_s)
      .Num("reduction_s", spans.reduction_s)
      .Num("seed_graph_s", spans.seed_graph_s)
      .Num("subtask_s", spans.subtask_s)
      .Num("branch_s", spans.branch_s)
      .Num("sink_s", spans.sink_s)
      .Int("sink_emits", spans.sink_emits)
      .Int("graph_vertices", spans.graph_vertices)
      .Int("core_vertices", spans.core_vertices)
      .Int("seeds", spans.seeds)
      .Int("seeds_built", spans.seeds_built)
      .Num("seed_graph_p50_us", Quantile(spans.seed_graph_us, 0.5))
      .Num("seed_graph_p99_us", Quantile(spans.seed_graph_us, 0.99))
      .Num("seed_cost_p50_us", Quantile(spans.seed_cost_us, 0.5))
      .Num("seed_cost_p99_us", Quantile(spans.seed_cost_us, 0.99))
      .Num("seed_cost_max_us",
           spans.seed_cost_us.empty()
               ? 0.0
               : *std::max_element(spans.seed_cost_us.begin(),
                                   spans.seed_cost_us.end()))
      .Counters("counters", spans.counters)
      .End();
}

}  // namespace perfbench
