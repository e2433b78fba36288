#ifndef KPLEX_OBS_PROGRESS_THROTTLE_H_
#define KPLEX_OBS_PROGRESS_THROTTLE_H_

// Rate limiter for the EnumOptions::progress hook. On tiny seeds a
// one-worker run would otherwise invoke the hook per seed —
// thousands of calls per second into whatever gauge or UI the caller
// wired up. The throttle lets one invocation through per configured
// interval and always lets the final (done == total) invocation
// through, so the 100% update is never lost. Suppressed invocations
// are counted in kplex_enum_progress_suppressed_total.
//
// Single-threaded by design: each enumeration run owns its throttle
// (the stage runner invokes progress from one thread at a time, at its
// stage barrier).

#include <cstdint>

#include "obs/metrics.h"
#include "util/timer.h"

namespace kplex {

class ProgressThrottle {
 public:
  /// `min_interval_ms` <= 0 disables throttling entirely.
  explicit ProgressThrottle(double min_interval_ms)
      : min_interval_nanos_(min_interval_ms <= 0.0
                                ? 0
                                : static_cast<int64_t>(min_interval_ms *
                                                       1e6)) {}

  /// True when this invocation should reach the hook. The first and the
  /// final (done == total) invocations always pass.
  bool ShouldEmit(uint64_t done, uint64_t total) {
    if (min_interval_nanos_ == 0 || done >= total) return true;
    const int64_t now = WallTimer::NowNanos();
    if (last_emit_nanos_ == 0 || now - last_emit_nanos_ >=
                                     min_interval_nanos_) {
      last_emit_nanos_ = now;
      return true;
    }
    SuppressedCounter().Increment();
    return false;
  }

 private:
  static Counter& SuppressedCounter() {
    static Counter& counter = MetricsRegistry::Global().GetCounter(
        "kplex_enum_progress_suppressed_total");
    return counter;
  }

  int64_t min_interval_nanos_;
  int64_t last_emit_nanos_ = 0;
};

}  // namespace kplex

#endif  // KPLEX_OBS_PROGRESS_THROTTLE_H_
