// Wall-clock timing helpers used by the parallel timeout mechanism and
// every benchmark table.

#ifndef KPLEX_UTIL_TIMER_H_
#define KPLEX_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace kplex {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanosecond tick of the monotonic clock (for cheap deadline checks).
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kplex

#endif  // KPLEX_UTIL_TIMER_H_
