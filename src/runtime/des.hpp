#pragma once
/// \file des.hpp
/// Discrete-event simulator core.
///
/// A minimal typed event calendar: (kind, arg) events scheduled at
/// absolute simulated times, executed in (time, insertion) order by one
/// handler that dispatches on the kind. The work-stealing engine
/// (loadbal/ws_engine.cpp) runs on top of this; the bulk-synchronous phase
/// models are closed-form and need no calendar. Determinism: ties break by
/// insertion sequence, so a run is a pure function of its inputs.
///
/// Events are plain 24-byte records rather than closures: the binary heap
/// moves them by plain copies, and an event's payload is one 32-bit
/// argument — a rank, or a slot the caller parks larger state in.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pmpl::runtime {

/// Event calendar with monotonically advancing simulated time. `Kind` is
/// the caller's enumeration of event kinds (at most 32 bits wide).
template <typename Kind>
class EventCalendar {
  static_assert(std::is_trivially_copyable_v<Kind> &&
                    sizeof(Kind) <= sizeof(std::uint32_t),
                "an event kind is a small enumeration");

 public:
  /// Current simulated time (seconds).
  double now() const noexcept { return now_; }

  /// Schedule (`kind`, `arg`) at absolute time `t`, clamped to now — no
  /// time travel, and a NaN time runs now rather than corrupting the heap
  /// order. Every stored time is therefore >= +0 (`+ 0.0` turns -0 into
  /// +0) and never NaN, which is what lets Later compare bit patterns.
  void schedule_at(double t, Kind kind, std::uint32_t arg) {
    const double at = (!(t >= now_) ? now_ : t) + 0.0;
    heap_.push_back(Event{at, seq_++, kind, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedule (`kind`, `arg`) `delay` seconds from now.
  void schedule_in(double delay, Kind kind, std::uint32_t arg) {
    schedule_at(now_ + (delay < 0.0 ? 0.0 : delay), kind, arg);
  }

  /// Run until the calendar is empty (or `max_events` processed as a
  /// runaway backstop — check hit_event_limit() afterwards: a capped run
  /// left events pending and any derived makespan is bogus), calling
  /// `handle(kind, arg)` for each event with now() at its time. Handlers
  /// may schedule more events. Returns the number of events processed.
  template <typename Handler>
  std::uint64_t run(Handler&& handle,
                    std::uint64_t max_events = 500'000'000ULL) {
    hit_event_limit_ = false;
    std::uint64_t processed = 0;
    while (!heap_.empty()) {
      if (processed >= max_events) {
        hit_event_limit_ = true;
        break;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Event ev = heap_.back();
      heap_.pop_back();
      now_ = ev.time;
      ++processed;
      handle(ev.kind, ev.arg);
    }
    events_processed_ += processed;
    return processed;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// True when the last run() stopped at its event cap with work pending.
  bool hit_event_limit() const noexcept { return hit_event_limit_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Kind kind;
    std::uint32_t arg;
  };
  static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);

  /// Heap comparator: the "largest" element (the heap front) is the
  /// earliest (time, seq). Non-negative doubles order as their bit
  /// patterns do, so (time, seq) compares as one 128-bit integer, without
  /// the branch on equal times that mispredicts in a busy calendar.
  struct Later {
    static unsigned __int128 key(const Event& e) noexcept {
      return (static_cast<unsigned __int128>(
                  std::bit_cast<std::uint64_t>(e.time))
              << 64) |
             e.seq;
    }
    bool operator()(const Event& a, const Event& b) const noexcept {
      return key(a) > key(b);
    }
  };

  std::vector<Event> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool hit_event_limit_ = false;
};

}  // namespace pmpl::runtime
