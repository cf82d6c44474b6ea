#pragma once
/// \file timer.hpp
/// Wall-clock timer for phase instrumentation and bench harnesses.

#include <chrono>

namespace pmpl {

/// Monotonic wall-clock stopwatch. `elapsed_s()` may be called repeatedly;
/// `restart()` resets the origin.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  double elapsed_s() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across multiple start/stop intervals (phase timers).
class AccumTimer {
 public:
  void start() noexcept { timer_.restart(); }
  void stop() noexcept { total_s_ += timer_.elapsed_s(); }
  double total_s() const noexcept { return total_s_; }
  void reset() noexcept { total_s_ = 0.0; }

 private:
  WallTimer timer_;
  double total_s_ = 0.0;
};

}  // namespace pmpl
