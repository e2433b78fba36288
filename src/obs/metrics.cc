#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace kplex {
namespace {

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t DoubleToBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Shortest-ish decimal form; metrics values do not need full
// round-trip precision, they need to be readable and stable.
std::string CompactDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
#ifndef KPLEX_OBS_NOOP
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() → overflow
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      observed, DoubleToBits(BitsToDouble(observed) + value),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
#else
  (void)value;
#endif
}

double Histogram::Sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::Percentile(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (next >= target) {
      if (i == bounds_.size()) {
        // Overflow bucket has no upper bound: clamp to the largest
        // finite bound (or 0 for a bound-less histogram).
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double fraction =
          (target - cumulative) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(std::max(fraction, 0.0), 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

const std::vector<double>& DefaultLatencySecondsBounds() {
  static const std::vector<double> kBounds = {
      1e-6,   2.5e-6, 5e-6, 1e-5,   2.5e-5, 5e-5, 1e-4, 2.5e-4,
      5e-4,   1e-3,   2.5e-3, 5e-3, 1e-2,   2.5e-2, 5e-2, 1e-1,
      2.5e-1, 5e-1,   1.0,  2.5,    5.0,    10.0, 30.0, 60.0};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencySecondsBounds();
    slot.reset(new Histogram(std::move(bounds)));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snapshot.counters.push_back({entry.first, entry.second->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snapshot.gauges.push_back({entry.first, entry.second->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    const Histogram& histogram = *entry.second;
    HistogramSample sample;
    sample.name = entry.first;
    sample.count = histogram.Count();
    sample.sum = histogram.Sum();
    sample.p50 = histogram.Percentile(0.50);
    sample.p95 = histogram.Percentile(0.95);
    sample.p99 = histogram.Percentile(0.99);
    sample.bounds = histogram.bounds();
    sample.buckets.reserve(sample.bounds.size() + 1);
    for (std::size_t i = 0; i <= sample.bounds.size(); ++i) {
      sample.buckets.push_back(histogram.BucketCount(i));
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) {
    entry.second->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& entry : gauges_) {
    entry.second->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& entry : histograms_) {
    Histogram& histogram = *entry.second;
    for (std::size_t i = 0; i <= histogram.bounds_.size(); ++i) {
      histogram.buckets_[i].store(0, std::memory_order_relaxed);
    }
    histogram.count_.store(0, std::memory_order_relaxed);
    histogram.sum_bits_.store(0, std::memory_order_relaxed);
  }
}

std::string RenderMetricsText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterSample& counter : snapshot.counters) {
    out << "counter " << counter.name << ' ' << counter.value << '\n';
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    out << "gauge " << gauge.name << ' ' << gauge.value << '\n';
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    out << "histogram " << histogram.name << " count=" << histogram.count
        << " sum=" << CompactDouble(histogram.sum)
        << " p50=" << CompactDouble(histogram.p50)
        << " p95=" << CompactDouble(histogram.p95)
        << " p99=" << CompactDouble(histogram.p99) << '\n';
  }
  return out.str();
}

std::string RenderMetricsPrometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterSample& counter : snapshot.counters) {
    out << "# TYPE " << counter.name << " counter\n"
        << counter.name << ' ' << counter.value << '\n';
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    out << "# TYPE " << gauge.name << " gauge\n"
        << gauge.name << ' ' << gauge.value << '\n';
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    out << "# TYPE " << histogram.name << " histogram\n";
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      cumulative += histogram.buckets[i];
      out << histogram.name << "_bucket{le=\""
          << CompactDouble(histogram.bounds[i]) << "\"} " << cumulative
          << '\n';
    }
    cumulative += histogram.buckets.empty() ? 0 : histogram.buckets.back();
    out << histogram.name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    out << histogram.name << "_sum " << CompactDouble(histogram.sum) << '\n';
    out << histogram.name << "_count " << histogram.count << '\n';
  }
  return out.str();
}

}  // namespace kplex
