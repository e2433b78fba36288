#ifndef KPLEX_OBS_METRICS_H_
#define KPLEX_OBS_METRICS_H_

// Process-wide observability: named counters, gauges, and fixed-bucket
// latency histograms behind a single registry.
//
// Design constraints, in order:
//   1. Hot-path writes (Counter::Increment, Histogram::Observe) must be
//      lock-free and safe from any thread: dispatcher workers, the TCP
//      accept loop, and parallel enumeration all write concurrently.
//      Every instrument is a handful of relaxed atomics.
//   2. Instrument references are stable for the process lifetime.
//      `MetricsRegistry::Get*` takes the registry mutex once; callers
//      cache the returned reference (commonly in a function-local
//      static) and never touch the map again.
//   3. Scrapes are approximate by design. `Snapshot()` reads each atomic
//      independently, so a histogram's count/sum/buckets may be torn by
//      a concurrent Observe. Monitoring tolerates off-by-one; the hot
//      path not stalling is worth more than a consistent cut.
//
// Defining KPLEX_OBS_NOOP compiles every write into nothing, which is
// how the bench suite prices the instrumentation (see bench_micro and
// docs/OBSERVABILITY.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kplex {

// Monotonically increasing event count. Relaxed atomics: totals are
// read by scrapes, never used for synchronization.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
#ifndef KPLEX_OBS_NOOP
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed level (queue depth, resident bytes).
class Gauge {
 public:
  void Set(int64_t value) {
#ifndef KPLEX_OBS_NOOP
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  void Add(int64_t delta) {
#ifndef KPLEX_OBS_NOOP
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: ascending upper bounds plus an implicit +Inf
// overflow bucket. Observe is two relaxed fetch_adds and one CAS loop
// (the double-valued sum); percentiles are linear interpolation within
// the covering bucket, computed at scrape time from the bucket counts.
class Histogram {
 public:
  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  // Approximate quantile in [0, 1]. Values landing in the overflow
  // bucket clamp to the largest finite bound; an empty histogram
  // reports 0.
  double Percentile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BucketCount(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;  // ascending; buckets_ has one extra slot
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double, CAS-accumulated
};

// Upper bounds in seconds spanning 1 microsecond to 1 minute, roughly
// 1-2.5-5 per decade. Every latency histogram in the tree uses these
// unless it asks for its own.
const std::vector<double>& DefaultLatencySecondsBounds();

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;     // finite upper bounds
  std::vector<uint64_t> buckets;  // per-bucket counts; bounds.size() + 1
};

// One scrape of the whole registry, sorted by name within each kind.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  std::size_t SeriesCount() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

// The process-wide instrument table. Get* registers on first use and
// returns the same instrument for the same name forever after; names
// follow the prometheus convention (snake_case, `_total` suffix on
// counters, `_seconds`/`_bytes` units).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` applies only on first registration; empty means
  // DefaultLatencySecondsBounds().
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every instrument in place. References stay valid — this is
  // for test isolation, not for production use.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Human-oriented one-line-per-series table; also the text-protocol wire
// body for the `metrics` verb:
//   counter <name> <value>
//   gauge <name> <value>
//   histogram <name> count=<n> sum=<s> p50=<s> p95=<s> p99=<s>
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

// Prometheus text exposition format (# TYPE comments, cumulative
// `_bucket{le=...}` series, `_sum` and `_count`).
std::string RenderMetricsPrometheus(const MetricsSnapshot& snapshot);

}  // namespace kplex

#endif  // KPLEX_OBS_METRICS_H_
