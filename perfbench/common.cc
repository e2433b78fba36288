#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "baselines/listplex.h"
#include "bench.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "util/rng.h"

namespace perfbench {

uint64_t DerivedSeed(uint64_t run_seed, const std::string& recipe,
                     uint32_t index) {
  uint64_t state = run_seed * 0x9e3779b97f4a7c15ULL + index;
  for (char c : recipe) {
    state = (state ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return kplex::SplitMix64(state);
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

void RunConcurrently(const std::vector<std::function<void()>>& tasks,
                     uint32_t threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const uint32_t count =
      std::max<uint32_t>(1, std::min<std::size_t>(threads, tasks.size()));
  for (uint32_t t = 0; t < count; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
    });
  }
  for (std::thread& worker : workers) worker.join();
}

namespace {

constexpr int kReferenceVertices = 128;
using ReferenceSet = std::array<uint64_t, kReferenceVertices / 64>;
using ReferenceGraph = std::array<ReferenceSet, kReferenceVertices>;

/// G(128, 1/2) from a fixed xorshift stream: the reference never changes.
ReferenceGraph MakeReferenceGraph() {
  ReferenceGraph graph{};
  uint64_t state = 0x243f6a8885a308d3ULL;
  for (int u = 0; u < kReferenceVertices; ++u) {
    for (int v = u + 1; v < kReferenceVertices; ++v) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      if ((state & 0xff) < 128) {
        graph[u][v / 64] |= uint64_t{1} << (v % 64);
        graph[v][u / 64] |= uint64_t{1} << (u % 64);
      }
    }
  }
  return graph;
}

/// Maximal cliques extending the current clique with candidates `p` and
/// excluded vertices `x`.
uint64_t CountMaximalCliques(const ReferenceGraph& graph, ReferenceSet p,
                             ReferenceSet x) {
  auto meet = [](const ReferenceSet& a, const ReferenceSet& b) {
    ReferenceSet out;
    for (std::size_t w = 0; w < out.size(); ++w) out[w] = a[w] & b[w];
    return out;
  };
  int pivot = -1;
  int best = -1;
  for (std::size_t w = 0; w < p.size(); ++w) {
    for (uint64_t bits = p[w] | x[w]; bits != 0; bits &= bits - 1) {
      const int u = static_cast<int>(w * 64) + std::countr_zero(bits);
      int degree = 0;
      for (std::size_t v = 0; v < p.size(); ++v) degree += std::popcount(p[v] & graph[u][v]);
      if (degree > best) {
        best = degree;
        pivot = u;
      }
    }
  }
  if (pivot < 0) return 1;  // p and x empty: the clique is maximal
  uint64_t count = 0;
  for (std::size_t w = 0; w < p.size(); ++w) {
    for (uint64_t bits = p[w] & ~graph[pivot][w]; bits != 0; bits &= bits - 1) {
      const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
      count += CountMaximalCliques(graph, meet(p, graph[v]), meet(x, graph[v]));
      p[w] &= ~(uint64_t{1} << (v % 64));
      x[w] |= uint64_t{1} << (v % 64);
    }
  }
  return count;
}

}  // namespace

double ReferenceMillis() {
  static const ReferenceGraph graph = MakeReferenceGraph();
  static volatile uint64_t sink = 0;
  ReferenceSet all;
  all.fill(~uint64_t{0});
  const int64_t start = NowNanos();
  sink = CountMaximalCliques(graph, all, ReferenceSet{});
  return SecondsSince(start) * 1e3;
}

CpuTurns::CpuTurns() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

void CpuTurns::Set(const std::vector<int>& cpus) const {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // Best effort: where affinity cannot be set, work stays where it is.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuTurns::Pin(std::size_t turn) const {
  if (!cpus_.empty()) Set({cpus_[turn % cpus_.size()]});
}

void CpuTurns::AllBut(std::size_t turn) const {
  if (cpus_.size() < 2) return All();
  std::vector<int> cpus = cpus_;
  cpus.erase(cpus.begin() + static_cast<std::ptrdiff_t>(turn % cpus.size()));
  Set(cpus);
}

void CpuTurns::All() const { Set(cpus_); }

std::vector<double> ReferenceOnEachCpu(const CpuTurns& turns) {
  std::vector<double> millis;
  for (std::size_t turn = 0; turn < std::max<std::size_t>(1, turns.size()); ++turn) {
    turns.Pin(turn);
    millis.push_back(ReferenceMillis());
  }
  return millis;
}

namespace {

Answer RunListPlex(const CheckedQuery& query, std::string* error) {
  kplex::HashingSink sink;
  auto result = kplex::ListPlexEnumerate(*query.graph, query.k, query.q, sink);
  if (!result.ok()) *error = result.status().ToString();
  return {sink.count(), sink.fingerprint()};
}

std::map<std::string, Answer> LoadRecorded(const std::string& path,
                                           const std::string& workload,
                                           std::vector<std::string>& errors) {
  std::map<std::string, Answer> recorded;
  std::ifstream in(path);
  if (!in) {
    errors.push_back("cannot read recorded answers " + path);
    return recorded;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, key, fingerprint;
    Answer answer;
    if (!(fields >> name >> key >> answer.count >> fingerprint)) {
      errors.push_back("malformed recorded answer: " + line);
      continue;
    }
    answer.fingerprint = std::strtoull(fingerprint.c_str(), nullptr, 16);
    if (name == workload) recorded[key] = answer;
  }
  return recorded;
}

}  // namespace

std::map<std::string, Answer> ReferenceAnswers(
    const RunOptions& options, const std::vector<CheckedQuery>& queries,
    std::vector<std::string>& errors) {
  std::map<std::string, Answer> reference;
  if (options.seed == kDefaultSeed && !options.toy) {
    const auto recorded =
        LoadRecorded(options.expected_path, options.workload, errors);
    for (const CheckedQuery& query : queries) {
      auto it = recorded.find(query.key);
      if (it == recorded.end()) {
        errors.push_back("no recorded answer for " + query.key);
      } else {
        reference[query.key] = it->second;
      }
    }
  } else {
    std::vector<Answer> answers(queries.size());
    std::vector<std::string> failures(queries.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      tasks.push_back([&, i] { answers[i] = RunListPlex(queries[i], &failures[i]); });
    }
    RunConcurrently(tasks, options.nproc);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!failures[i].empty()) {
        errors.push_back("ListPlex failed on " + queries[i].key + ": " +
                         failures[i]);
      } else {
        reference[queries[i].key] = answers[i];
      }
    }
  }
  if (options.corrupt_expected) {
    for (auto& [key, answer] : reference) answer.fingerprint ^= 1;
  }
  return reference;
}

bool RecordAnswers(const RunOptions& options,
                   const std::vector<CheckedQuery>& queries) {
  std::vector<Answer> listplex(queries.size()), ours(queries.size());
  std::vector<std::string> failures(queries.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    tasks.push_back([&, i] {
      listplex[i] = RunListPlex(queries[i], &failures[i]);
      kplex::HashingSink sink;
      auto result = kplex::EnumerateMaximalKPlexes(
          *queries[i].graph, kplex::EnumOptions::Ours(queries[i].k, queries[i].q),
          sink);
      if (!result.ok()) failures[i] = result.status().ToString();
      ours[i] = {sink.count(), sink.fingerprint()};
    });
  }
  RunConcurrently(tasks, options.nproc);
  std::ofstream out(options.record_path, std::ios::app);
  bool ok = static_cast<bool>(out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!failures[i].empty() || !(listplex[i] == ours[i])) {
      std::fprintf(stderr, "record: %s: Ours and ListPlex disagree %s\n",
                   queries[i].key.c_str(), failures[i].c_str());
      ok = false;
      continue;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "%s %s %" PRIu64 " 0x%016" PRIx64 "\n",
                  options.workload.c_str(), queries[i].key.c_str(),
                  ours[i].count, ours[i].fingerprint);
    out << line;
  }
  return ok && static_cast<bool>(out);
}

// ------------------------------------------------------------------ Json

void Json::Key(const char* key) {
  if (!first_) out_ += ',';
  first_ = false;
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::Begin(const char* key) {
  Key(key);
  out_ += '{';
  first_ = true;
  return *this;
}

Json& Json::End() {
  out_ += '}';
  first_ = false;
  return *this;
}

Json& Json::BeginArray(const char* key) {
  Key(key);
  out_ += '[';
  first_ = true;
  return *this;
}

Json& Json::EndArray() {
  out_ += ']';
  first_ = false;
  return *this;
}

Json& Json::Num(const char* key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0.0;
  char buffer[32];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out_.append(buffer, end);
  return *this;
}

Json& Json::Int(const char* key, uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const char* key, const std::string& value) {
  Key(key);
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Bool(const char* key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

Json& Json::Nums(const char* key, const std::vector<double>& values) {
  BeginArray(key);
  for (double value : values) Num(nullptr, value);
  return EndArray();
}

Json& Json::Counters(const char* key, const kplex::AlgoCounters& c) {
  return Begin(key)
      .Int("seed_graphs", c.seed_graphs)
      .Int("seed_vertices_pruned", c.seed_vertices_pruned)
      .Int("subtasks", c.subtasks)
      .Int("subtasks_pruned_r1", c.subtasks_pruned_r1)
      .Int("branch_calls", c.branch_calls)
      .Int("ub_prunes", c.ub_prunes)
      .Int("kplex_shortcuts", c.kplex_shortcuts)
      .Int("outputs", c.outputs)
      .Int("pair_edges_pruned", c.pair_edges_pruned)
      .Int("timeout_spawns", c.timeout_spawns)
      .End();
}

}  // namespace perfbench
