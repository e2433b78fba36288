#include "obs/trace.h"

#include <atomic>
#include <cstdio>

#include "util/json_escape.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kplex {
namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<uint64_t> g_next_trace_id{1};

}  // namespace

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpan(
    uint64_t trace_id, const char* name, double seconds, Histogram* latency,
    const std::vector<std::pair<const char*, std::string>>& attrs) {
  if (latency != nullptr) latency->Observe(seconds);
  if (!TraceEnabled()) return;
  std::string line;
  line.reserve(128);
  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"ts\":%.6f,\"span\":\"%s\","
                "\"trace\":\"0x%016llx\",\"us\":%.1f",
                internal::WallClockSeconds(), name,
                static_cast<unsigned long long>(trace_id), seconds * 1e6);
  line = head;
  for (const auto& attr : attrs) {
    line += ",\"";
    AppendJsonEscaped(line, attr.first);
    line += "\":\"";
    AppendJsonEscaped(line, attr.second);
    line += "\"";
  }
  line += "}";
  internal::EmitRawLine(line);
}

TraceSpan::TraceSpan(uint64_t trace_id, const char* name, Histogram* latency)
    : trace_id_(trace_id),
      name_(name),
      latency_(latency),
      start_nanos_(WallTimer::NowNanos()) {}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::AddAttr(const char* key, std::string value) {
  attrs_.emplace_back(key, std::move(value));
}

void TraceSpan::End() {
  if (ended_) return;
  ended_ = true;
  const double seconds =
      static_cast<double>(WallTimer::NowNanos() - start_nanos_) * 1e-9;
  RecordSpan(trace_id_, name_, seconds, latency_, attrs_);
}

}  // namespace kplex
