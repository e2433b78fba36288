// Shared pieces of the perfbench binary: run options, the raw record a
// run writes for run.py (which turns it into the named metrics), the
// answer check, and small timing helpers.
//
// Division of labour: this binary measures and checks; it writes raw
// samples (latencies, span sums, counters) and run.py derives every
// metric named in BENCHMARK.json from them. Keeping the statistics in
// one Python file keeps the metric definitions in one place.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/counters.h"
#include "core/options.h"
#include "graph/graph.h"

namespace perfbench {

/// The seed whose answers are recorded in expected.txt. Runs on any
/// other seed check their answers against an untimed ListPlex run.
inline constexpr uint64_t kDefaultSeed = 1;

/// Untimed work before the timed loop: a shared host runs the first
/// second or so of a burst measurably slower.
inline constexpr double kWarmupSeconds = 1.5;
/// Set-up repeats for at least this long and this many times; setup_s
/// is the fastest repeat. Set-up is fixed work, so load from other
/// tenants of a shared host only adds to it (the rule mine_s follows),
/// and a span of seconds gives a quiet moment a chance to occur.
inline constexpr double kSetupSeconds = 2.0;
inline constexpr std::size_t kSetupRepeats = 5;

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  /// Toy-size inputs for the self-test (never recorded, always checked
  /// against ListPlex).
  bool toy = false;
  /// Self-test hook: flip one bit of every reference fingerprint so the
  /// answer check must fail.
  bool corrupt_expected = false;
  std::string expected_path;  ///< recorded answers (expected.txt)
  std::string record_path;    ///< write recorded answers here instead
  std::string workdir;        ///< scratch files (snapshots, stores)
  uint32_t nproc = 1;
};

/// Generator seed of instance `index` of the recipe `recipe` under the
/// run seed: one run seed drives every synthetic graph of a workload.
uint64_t DerivedSeed(uint64_t run_seed, const std::string& recipe,
                     uint32_t index);

/// Monotonic nanoseconds; every span in the benchmark uses this clock.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) * 1e-9;
}

/// Value at quantile p (0..1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty vector. Sorts a copy.
double Quantile(std::vector<double> values, double p);

/// The answer to one enumeration: plex count and HashingSink fingerprint.
struct Answer {
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  bool operator==(const Answer&) const = default;
};

/// One query of a workload whose answer must be checked: a graph, the
/// enumeration parameters, and a key naming it in expected.txt.
struct CheckedQuery {
  std::string key;
  const kplex::Graph* graph = nullptr;
  uint32_t k = 2;
  uint32_t q = 4;
};

/// Reference answers for a workload's queries, by key. For the default
/// seed they come from expected.txt (a missing key is an error); for any
/// other seed, or in toy mode, from ListPlex runs spread over
/// `options.nproc` threads. With options.corrupt_expected every
/// fingerprint is flipped in one bit. Errors go to `errors`.
std::map<std::string, Answer> ReferenceAnswers(
    const RunOptions& options, const std::vector<CheckedQuery>& queries,
    std::vector<std::string>& errors);

/// Runs ListPlex and Ours on every query, fails on any disagreement, and
/// appends "workload key count fingerprint" lines to options.record_path.
bool RecordAnswers(const RunOptions& options,
                   const std::vector<CheckedQuery>& queries);

/// Runs `tasks` over `threads` worker threads (untimed side work only).
void RunConcurrently(const std::vector<std::function<void()>>& tasks,
                     uint32_t threads);

/// Wall time, in milliseconds, of one run of the benchmark's reference
/// work: the maximal cliques of a fixed 128-vertex random graph, by
/// Bron-Kerbosch with pivoting over bitsets. It is code of the benchmark's
/// own, so no change to the program moves it; only the host's speed
/// does. Timed work is interleaved with it, and run.py rescales the run's
/// times by how fast the host ran it (see README.md).
double ReferenceMillis();

/// Moves timed work from CPU to CPU. A shared host slows single CPUs by
/// 1.1-1.7x for seconds to tens of seconds at a time (another tenant
/// busy on the same physical core) while the others run at full speed,
/// so a run that stays on one CPU can be slow from start to end. Each
/// repetition of a piece of fixed work takes the next turn, so over a
/// run it meets every CPU, and the fastest-run rules in run.py keep the
/// repetitions made on a quiet one. Affinity is set on the calling
/// thread; threads it starts afterwards inherit it.
class CpuTurns {
 public:
  CpuTurns();  ///< the CPUs this process may use now
  std::size_t size() const { return cpus_.size(); }
  /// Confines the calling thread to CPU number `turn` modulo size().
  void Pin(std::size_t turn) const;
  /// Every CPU but number `turn` modulo size(); every CPU when size() is 1.
  void AllBut(std::size_t turn) const;
  /// Every CPU again.
  void All() const;

 private:
  void Set(const std::vector<int>& cpus) const;
  std::vector<int> cpus_;
};

/// ReferenceMillis() once on each CPU of `turns`, in turn; the calling
/// thread is left on the last one.
std::vector<double> ReferenceOnEachCpu(const CpuTurns& turns);

/// Minimal JSON writer for the raw record: objects, arrays, numbers
/// printed with every digit, strings with the necessary escapes.
class Json {
 public:
  Json& Begin(const char* key = nullptr);  ///< opens an object
  Json& End();                             ///< closes an object
  Json& BeginArray(const char* key);
  Json& EndArray();
  Json& Num(const char* key, double value);
  Json& Int(const char* key, uint64_t value);
  Json& Str(const char* key, const std::string& value);
  Json& Bool(const char* key, bool value);
  Json& Nums(const char* key, const std::vector<double>& values);
  Json& Counters(const char* key, const kplex::AlgoCounters& counters);
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key);
  std::string out_;
  bool first_ = true;
};

/// One timed pass over an engine workload's cells, or one closed-loop
/// round of the service mix.
struct Round {
  double seconds = 0;
  double queries = 0;
  /// Engine: each instance's enumeration time, in instance order.
  /// Service: every loop request's latency, in request order.
  std::vector<double> query_ms;
  std::vector<double> cold_ms;   ///< service: the signatures' first requests
  std::vector<double> warm_us;   ///< service: the repeats (cache hits)
  std::vector<double> disk_ms;   ///< service: restart-phase disk hits, in order
  std::vector<double> ref_ms;    ///< ReferenceMillis() runs during the round
};

/// What every workload reports.
struct RawRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint32_t threads = 1;
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  int64_t peak_rss_kib = 0;
  /// Per-layer raw values of the traced run (empty when untraced).
  std::string layers_json;

  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

RawRecord RunEngineWorkload(const RunOptions& options);
RawRecord RunServiceMix(const RunOptions& options);

/// True for the names RunEngineWorkload accepts.
bool IsEngineWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
