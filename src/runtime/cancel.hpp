#pragma once
/// \file cancel.hpp
/// Cooperative cancellation and deadlines for anytime planning.
///
/// A `CancelToken` is a poll-based stop signal: long-running computations
/// (scheduler batches, sampling/KNN/connection loops, per-region planner
/// iterations) check `stop_requested()` at natural granule boundaries and
/// return early with whatever partial result they hold. Nothing is ever
/// killed — the overrun past a cancellation or deadline is bounded by one
/// granule (one sample attempt / one local plan / one k-NN query), which is
/// what lets a build with a deadline return a *well-formed* partial roadmap
/// instead of throwing or being torn down mid-write.
///
/// `Deadline` wraps the monotonic clock (steady_clock — wall-clock jumps
/// must not fire deadlines). A token can carry a deadline; once it expires
/// the token latches cancelled, so subsequent polls are a single atomic
/// load, not a clock read.

#include <atomic>
#include <chrono>

namespace pmpl::runtime {

/// A monotonic-clock deadline. Default-constructed deadlines never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  constexpr Deadline() noexcept = default;

  /// A deadline that never expires.
  static constexpr Deadline never() noexcept { return {}; }

  /// Expires `seconds` from now (non-positive: already expired).
  static Deadline after_s(double seconds) noexcept {
    Deadline d;
    d.armed_ = true;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    return d;
  }

  /// Expires `ms` milliseconds from now.
  static Deadline after_ms(double ms) noexcept { return after_s(ms * 1e-3); }

  bool armed() const noexcept { return armed_; }

  bool expired() const noexcept { return armed_ && Clock::now() >= when_; }

 private:
  Clock::time_point when_{};
  bool armed_ = false;
};

/// Cooperative stop signal: an explicit `request_cancel()` from any thread,
/// or the expiry of an attached `Deadline`. Thread-safe; pass by pointer
/// (nullptr = never stops). Once stopped, stays stopped.
class CancelToken {
 public:
  CancelToken() noexcept = default;
  explicit CancelToken(Deadline deadline) noexcept : deadline_(deadline) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Ask the computation to stop at its next poll. Callable from any thread.
  void request_cancel() noexcept {
    explicit_.store(true, std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_release);
  }

  /// True iff request_cancel() was called (deadline expiry not included) —
  /// lets reports distinguish "cancelled" from "deadline exceeded".
  bool cancel_requested() const noexcept {
    return explicit_.load(std::memory_order_acquire);
  }

  /// The poll: true once cancellation was requested or the deadline passed.
  /// Latches, so after the first true the cost is one atomic load.
  bool stop_requested() const noexcept {
    if (stopped_.load(std::memory_order_acquire)) return true;
    if (deadline_.expired()) {
      stopped_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  const Deadline& deadline() const noexcept { return deadline_; }

 private:
  // `stopped_` is the latch stop_requested() polls (mutable: deadline
  // expiry is observed in const context).
  mutable std::atomic<bool> stopped_{false};
  std::atomic<bool> explicit_{false};
  Deadline deadline_{};
};

/// Convenience: nullable-token poll.
inline bool stop_requested(const CancelToken* token) noexcept {
  return token != nullptr && token->stop_requested();
}

}  // namespace pmpl::runtime
