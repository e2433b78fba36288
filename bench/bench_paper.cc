// Reproduces the paper's evaluation: Tables 2-7, Figures 7-9 and 13, and
// its remarks on the seed ordering and reverse search.
//
//   bench_paper [table7 table2 table3 table4 table5 table6 fig7 fig8 fig9
//                fig13 ordering reverse-search]...
//
// prints the named tables (all by default) in that order. A timed column
// runs kRuns times per cell and prints `median [min, max]` of the seconds
// the runs report, then `(N calls)`, the branch calls of its search, so a
// gap in search size reads apart from a gap in time per call. A counted
// baseline (reverse search, plain BK) reports no counters and prints no
// calls. Every run's result set must hash to its row's first
// column's fingerprint, or the program exits 1 once the tables are
// printed. KPLEX_BENCH_THREADS sets the workers of Table 4 and Figure 13
// (default: hardware concurrency). The inputs are the registry's stand-ins
// for the paper's graphs, so shapes, not times, compare with the paper.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bk_naive.h"
#include "baselines/reverse_search.h"
#include "bench_common/dataset_registry.h"
#include "bench_common/harness.h"
#include "bench_common/table_printer.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "util/timer.h"

namespace kplex {
namespace {

constexpr int kRuns = 3;

struct Cell {
  std::string graph;
  uint32_t k;
  uint32_t q;
};

// Each start cell and the next four q in steps of 2 (Figures 7 and 9).
std::vector<Cell> VaryQ(const std::vector<Cell>& starts) {
  std::vector<Cell> cells;
  for (const Cell& start : starts) {
    for (uint32_t q = start.q; q <= start.q + 8; q += 2) {
      cells.push_back({start.graph, start.k, q});
    }
  }
  return cells;
}

// Loads a registry dataset, or one of the reverse-search note's graphs,
// small enough for its polynomial-delay walk; false if it cannot.
bool LoadGraph(const std::string& name, Graph& graph) {
  if (name == "er-40-20%") {
    graph = GenerateErdosRenyi(40, 0.20, 1001);
  } else if (name == "er-60-12%") {
    graph = GenerateErdosRenyi(60, 0.12, 1002);
  } else if (name == "ba-80-5") {
    graph = GenerateBarabasiAlbert(80, 5, 1003);
  } else if (name == "ws-80-8") {
    graph = GenerateWattsStrogatz(80, 8, 0.2, 1004);
  } else {
    StatusOr<Graph> loaded = LoadDataset(name);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", name.c_str(),
                   loaded.status().ToString().c_str());
      return false;
    }
    graph = std::move(*loaded);
  }
  return true;
}

// A measured column: its header and the run it makes at a cell's k, q.
struct Column {
  std::string header;
  std::function<AlgoFn(uint32_t k, uint32_t q)> make;
  bool counted = false;  // a Counted baseline: no search counters
};

Column Seq(const char* name) {
  return {name, [name](uint32_t k, uint32_t q) {
            return MakeSequentialAlgo(name, k, q);
          }};
}

Column Par(std::string header, const char* name, uint32_t threads,
           double tau_ms) {
  return {std::move(header), [=](uint32_t k, uint32_t q) {
            return MakeParallelAlgo(name, k, q, threads, tau_ms);
          }};
}

// Ours with another seed ordering.
Column OursWith(const char* header, VertexOrdering ordering) {
  return {header, [=](uint32_t k, uint32_t q) -> AlgoFn {
            EnumOptions options = EnumOptions::Ours(k, q);
            options.ordering = ordering;
            return [options](const Graph& g, ResultSink& sink) {
              return EnumerateMaximalKPlexes(g, options, sink);
            };
          }};
}

// A baseline that returns a count, not an EnumResult: timed from outside.
template <typename Run>
Column Counted(const char* header, Run run) {
  return {header, [run](uint32_t k, uint32_t q) -> AlgoFn {
            return [=](const Graph& g, ResultSink& s) -> StatusOr<EnumResult> {
              WallTimer timer;
              const StatusOr<uint64_t> count = run(g, k, q, s);
              if (!count.ok()) return count.status();
              EnumResult result;
              result.num_plexes = *count;
              result.seconds = timer.ElapsedSeconds();
              return result;
            };
          },
          /*counted=*/true};
}

// One column's readings on one cell, sorted, its answer and, unless it
// is a counted baseline, the branch calls of its last run.
struct Sample {
  std::vector<double> values;
  uint64_t num_plexes = 0;
  uint64_t fingerprint = 0;
  std::optional<uint64_t> branch_calls;
};

double Median(const Sample& s) { return s.values[s.values.size() / 2]; }

std::string Range(const Sample& s) {
  std::string cell = FormatSeconds(Median(s)) + " [" +
                     FormatSeconds(s.values.front()) + ", " +
                     FormatSeconds(s.values.back()) + "]";
  if (s.branch_calls) cell += " (" + FormatCount(*s.branch_calls) + " calls)";
  return cell;
}

std::string Ratio(const Sample& num, const Sample& den) {
  return FormatDouble(Median(num) / std::max(Median(den), 1e-9), 2) + "x";
}

using Row = std::vector<std::string>;

struct Table {
  const char* name;  // the argument that selects it
  std::string title;
  std::vector<Cell> cells = {};
  std::vector<Column> columns = {};
  // The printed cells after dataset, k, q and #k-plexes, and their
  // headers; by default one Range per column, under its header.
  std::vector<std::string> headers = {};
  std::function<Row(const std::vector<Sample>&)> row = nullptr;
  const char* note = "";
  // One fork-isolated peak-RSS reading (MiB) per run; answers unchecked.
  bool memory = false;
  bool (*print)(const Table&) = nullptr;  // in place of RunTable
};

// kRuns timed runs of `algo`, or one memory reading; false if a run
// fails or two runs disagree.
bool Measure(const Table& t, const Graph& g, const AlgoFn& algo,
             bool counted, Sample& s) {
  if (t.memory) {
    const int64_t kib = MeasurePeakRssKib([&algo, &g] {
      CountingSink sink;
      (void)algo(g, sink);
    });
    s.values = {kib / 1024.0};
    return kib >= 0;
  }
  for (int i = 0; i < kRuns; ++i) {
    const RunOutcome out = TimeAlgo(g, algo);
    if (!out.ok || (i > 0 && out.fingerprint != s.fingerprint)) {
      std::fprintf(stderr, "%s\n", out.ok ? "RESULT MISMATCH between runs"
                                          : out.error.c_str());
      return false;
    }
    s.num_plexes = out.num_plexes;
    s.fingerprint = out.fingerprint;
    if (!counted) s.branch_calls = out.branch_calls;
    s.values.push_back(out.seconds);
  }
  std::sort(s.values.begin(), s.values.end());
  return true;
}

bool RunTable(const Table& t) {
  std::printf("== %s ==\n\n", t.title.c_str());
  Row headers = {"dataset", "k", "q"};
  if (!t.memory) headers.push_back("#k-plexes");
  if (t.headers.empty()) {
    for (const Column& column : t.columns) headers.push_back(column.header);
  }
  headers.insert(headers.end(), t.headers.begin(), t.headers.end());
  TablePrinter printer(std::move(headers));

  bool agree = true;
  std::string loaded;
  Graph graph;
  for (const Cell& cell : t.cells) {
    if (cell.graph != loaded && !LoadGraph(cell.graph, graph)) return false;
    loaded = cell.graph;
    std::vector<Sample> samples(t.columns.size());
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      const Column& column = t.columns[i];
      const char* header = column.header.c_str();
      if (!Measure(t, graph, column.make(cell.k, cell.q), column.counted,
                   samples[i])) {
        std::fprintf(stderr, "%s: %s failed on %s k=%u q=%u\n", t.name,
                     header, cell.graph.c_str(), cell.k, cell.q);
        return false;
      }
      if (samples[i].fingerprint != samples[0].fingerprint) {
        agree = false;
        std::fprintf(stderr, "RESULT MISMATCH: %s on %s k=%u q=%u\n", header,
                     cell.graph.c_str(), cell.k, cell.q);
      }
    }
    Row row = {cell.graph, std::to_string(cell.k), std::to_string(cell.q)};
    if (!t.memory) row.push_back(FormatCount(samples[0].num_plexes));
    if (t.row) {
      const Row cells = t.row(samples);
      row.insert(row.end(), cells.begin(), cells.end());
    } else {
      for (const Sample& s : samples) {
        row.push_back(t.memory ? FormatDouble(s.values[0], 2) : Range(s));
      }
    }
    printer.AddRow(std::move(row));
  }
  printer.Print(std::cout);
  std::printf("%s\n", t.note);
  return agree;
}

bool PrintDatasets(const Table& t) {
  std::printf("== %s ==\n\n", t.title.c_str());
  TablePrinter printer({"dataset", "stands for", "category", "n", "m",
                        "Delta", "D", "recipe"});
  Graph graph;
  for (const DatasetSpec& spec : AllDatasets()) {
    if (!LoadGraph(spec.name, graph)) return false;
    const GraphStats stats = ComputeGraphStats(graph);
    printer.AddRow({spec.name, spec.stands_for, spec.category,
                    FormatCount(stats.num_vertices),
                    FormatCount(stats.num_edges),
                    FormatCount(stats.max_degree),
                    FormatCount(stats.degeneracy), spec.recipe});
  }
  printer.Print(std::cout);
  std::printf("\n");
  return true;
}

std::vector<Table> Tables() {
  const char* env = std::getenv("KPLEX_BENCH_THREADS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  const uint32_t threads = n > 0 ? n : (hw > 0 ? hw : 2);
  const std::string on = ", " + std::to_string(threads) + " threads";
  static constexpr double kTable4Taus[] = {0.1, 0.01, 1.0, 10.0};  // 0.1 first
  std::vector<Column> table4 = {
      Par("FP-par", "FP-par", threads, 0),
      Par("ListPlex-par", "ListPlex-par", threads, 0)};
  for (double tau : kTable4Taus) {
    table4.push_back(
        Par("Ours(" + FormatDouble(tau, 2) + "ms)", "Ours-par", threads, tau));
  }
  // Tables 5 and 6 share the paper's k = 3, 4 ablation cells.
  const std::vector<Cell> ablation = {
      {"jazz-syn", 3, 12},         {"jazz-syn", 4, 12},
      {"wiki-vote-syn", 3, 12},    {"wiki-vote-syn", 4, 18},
      {"soc-slashdot-syn", 3, 20}, {"soc-slashdot-syn", 4, 20},
      {"email-euall-syn", 3, 12},  {"email-euall-syn", 4, 14},
      {"soc-pokec-syn", 3, 12},    {"soc-pokec-syn", 4, 16}};
  // Each comment below gives what the paper found.
  return {
      // FP uses the most memory (whole two-hop sets per task). First: a
      // forked child reuses its parent's freed heap and would read low.
      {.name = "table7",
       .title = "Table 7: peak memory (MiB), fork-isolated peak-RSS growth",
       .cells = {{"jazz-syn", 4, 12}, {"soc-slashdot-syn", 2, 12},
                 {"email-euall-syn", 4, 14}, {"enwiki-syn", 3, 12}},
       .columns = {Seq("FP"), Seq("ListPlex"), Seq("Ours")},
       .memory = true},
      {.name = "table2",
       .title = "Table 2: datasets (synthetic stand-ins and their recipes)",
       .print = PrintDatasets},
      // Ours fastest (up to ~5x ListPlex, ~2x FP), Ours_P close. The
      // paper's (k, q) grid {2,3,4} x {12,20,30}, scaled to the inputs.
      {.name = "table3",
       .title = "Table 3: sequential running time (sec)",
       .cells = {{"jazz-syn", 2, 12},         {"jazz-syn", 3, 12},
                 {"jazz-syn", 4, 12},         {"lastfm-syn", 2, 6},
                 {"as-caida-syn", 2, 5},      {"wiki-vote-syn", 2, 12},
                 {"wiki-vote-syn", 3, 12},    {"wiki-vote-syn", 4, 20},
                 {"soc-epinions-syn", 2, 12}, {"soc-epinions-syn", 3, 12},
                 {"soc-epinions-syn", 4, 12}, {"soc-slashdot-syn", 2, 12},
                 {"soc-slashdot-syn", 3, 20}, {"soc-slashdot-syn", 4, 20},
                 {"email-euall-syn", 3, 12},  {"email-euall-syn", 4, 14},
                 {"com-dblp-syn", 2, 7},      {"com-dblp-syn", 3, 8},
                 {"amazon0505-syn", 2, 5},    {"amazon0505-syn", 3, 7}},
       .columns = {Seq("FP"), Seq("ListPlex"), Seq("Ours_P"), Seq("Ours")}},
      // Ours fastest. Ours(tau_best), the tau grid's fastest median, can
      // undercut Ours(0.1ms) by noise alone.
      {.name = "table4",
       .title = "Table 4: parallel running time (sec)" + on,
       .cells = {{"enwiki-syn", 2, 12},     {"enwiki-syn", 3, 12},
                 {"soc-pokec-syn", 2, 12},  {"soc-pokec-syn", 3, 12},
                 {"as-skitter-syn", 2, 20}, {"as-skitter-syn", 3, 20},
                 {"uk-2005-syn", 2, 8},     {"uk-2005-syn", 3, 9},
                 {"webbase-syn", 2, 20},    {"webbase-syn", 3, 20},
                 {"arabic-syn", 2, 10},     {"arabic-syn", 3, 10}},
       .columns = table4,
       .headers = {"tau_best(ms)", "FP-par", "ListPlex-par", "Ours(0.1ms)",
                   "Ours(tau_best)"},
       .row = [](const std::vector<Sample>& s) {
         const auto best = std::min_element(
             s.begin() + 2, s.end(), [](const Sample& a, const Sample& b) {
               return Median(a) < Median(b);
             });
         return Row{FormatDouble(kTable4Taus[best - s.begin() - 2], 2),
                    Range(s[0]), Range(s[1]), Range(s[2]), Range(*best)};
       }},
      // Ours fastest; the bound matters most at large k and small q.
      {.name = "table5",
       .title = "Table 5: effect of upper bounding (sec)",
       .cells = ablation,
       .columns = {Seq("Ours\\ub"), Seq("Ours\\ub+fp"), Seq("Ours")}},
      // Both rules help, R2 more than R1; together up to ~7x over Basic.
      {.name = "table6",
       .title = "Table 6: effect of pruning rules R1/R2 (sec)",
       .cells = ablation,
       .columns = {Seq("Basic"), Seq("Basic+R1"), Seq("Basic+R2"),
                   Seq("Ours")}},
      // Ours lowest at every q; every curve falls as q grows.
      {.name = "fig7",
       .title = "Figure 7 / 14: running time (sec) vs q",
       .cells = VaryQ({{"wiki-vote-syn", 3, 12}, {"wiki-vote-syn", 4, 18},
                       {"jazz-syn", 4, 12}, {"email-euall-syn", 4, 14}}),
       .columns = {Seq("FP"), Seq("ListPlex"), Seq("Ours")}},
      // Near-ideal scaling to 16 threads; here it stops at the core count.
      {.name = "fig8",
       .title = "Figure 8: speedup vs #threads (tau = 0.1 ms), " +
                std::to_string(hw) + " cores",
       .cells = {{"enwiki-syn", 2, 12}, {"enwiki-syn", 3, 12},
                 {"soc-pokec-syn", 3, 12}, {"webbase-syn", 3, 20},
                 {"email-euall-syn", 4, 14}},
       .columns = {Par("1 thread", "Ours-par", 1, 0.1),
                   Par("2 threads", "Ours-par", 2, 0.1),
                   Par("4 threads", "Ours-par", 4, 0.1),
                   Par("8 threads", "Ours-par", 8, 0.1)},
       .headers = {"T(1thr) sec", "x2 threads", "x4 threads", "x8 threads"},
       .row = [](const std::vector<Sample>& s) {
         return Row{Range(s[0]), Ratio(s[0], s[1]), Ratio(s[0], s[2]),
                    Ratio(s[0], s[3])};
       }},
      // Ours below Basic, the gap widest at large k.
      {.name = "fig9",
       .title = "Figure 9 / 15: Basic vs Ours, running time (sec) vs q",
       .cells = VaryQ({{"jazz-syn", 4, 12}, {"email-euall-syn", 4, 14},
                       {"soc-pokec-syn", 3, 12}, {"wiki-vote-syn", 4, 18}}),
       .columns = {Seq("Basic"), Seq("Ours")},
       .headers = {"Basic", "Ours", "speedup"},
       .row = [](const std::vector<Sample>& s) {
         return Row{Range(s[0]), Range(s[1]), Ratio(s[0], s[1])};
       }},
      // A tau near "no decomposition" hurts; 0.1 ms is near the optimum.
      {.name = "fig13",
       .title = "Figure 13: parallel time (sec) vs tau_time" + on,
       .cells = {{"enwiki-syn", 2, 12}, {"enwiki-syn", 3, 12},
                 {"soc-pokec-syn", 3, 12}, {"email-euall-syn", 4, 14},
                 {"webbase-syn", 3, 20}},
       .columns = {Par("tau=1us", "Ours-par", threads, 0.001),
                   Par("10us", "Ours-par", threads, 0.01),
                   Par("0.1ms", "Ours-par", threads, 0.1),
                   Par("1ms", "Ours-par", threads, 1.0),
                   Par("10ms", "Ours-par", threads, 10.0),
                   Par("100ms", "Ours-par", threads, 100.0)}},
      // Section 3: the degeneracy order bounds |C| by D; results do not
      // depend on the order.
      {.name = "ordering",
       .title = "Section 3 note: effect of the seed-vertex ordering",
       .cells = {{"jazz-syn", 3, 12}, {"wiki-vote-syn", 3, 12},
                 {"email-euall-syn", 3, 12}, {"soc-epinions-syn", 3, 12}},
       .columns = {OursWith("degeneracy", VertexOrdering::kDegeneracy),
                   OursWith("by-id", VertexOrdering::kById),
                   OursWith("by-degree", VertexOrdering::kByDegreeAscending)}},
      // Section 2: reverse search [8] is slower than BK at enumerating all.
      {.name = "reverse-search",
       .title = "Related-Work note: reverse search vs BK-style (sec)",
       .cells = {{"er-40-20%", 2, 4}, {"er-60-12%", 2, 4},
                 {"ba-80-5", 2, 5}, {"ws-80-8", 2, 5}},
       .columns = {Counted("ReverseSearch", ReverseSearchEnumerate),
                   Counted("plain BK", BkReferenceEnumerate), Seq("Ours")},
       .note = "Expected: reverse search trails plain BK by orders of\n"
               "magnitude, and the engine beats both.\n"},
  };
}

}  // namespace
}  // namespace kplex

int main(int argc, char** argv) {
  using namespace kplex;
  const std::vector<Table> tables = Tables();
  const std::vector<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& name : wanted) {
    if (std::none_of(tables.begin(), tables.end(),
                     [&name](const Table& t) { return name == t.name; })) {
      std::fprintf(stderr, "unknown table '%s'; one of:", name.c_str());
      for (const Table& t : tables) std::fprintf(stderr, " %s", t.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  bool ok = true;
  for (const Table& t : tables) {
    if (wanted.empty() ||
        std::find(wanted.begin(), wanted.end(), t.name) != wanted.end()) {
      ok = (t.print != nullptr ? t.print(t) : RunTable(t)) && ok;
    }
  }
  std::printf("all runs ok, all answers agree: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
