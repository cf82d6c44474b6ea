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
/// Events are plain 24-byte records rather than closures, and an event's
/// payload is one 32-bit argument — a rank, or a slot the caller parks
/// larger state in. Pending events sit in one of two places:
///  - a FIFO lane, one per fixed delay named at construction (the
///    work-stealing engine names its cluster's local and remote hop
///    latency, which nearly every frame pays). schedule_in() appends an
///    event whose delay bit-equals a lane's to that lane's ring buffer;
///  - a binary heap on (time, seq), for every other event.
/// run() pops the earliest (time, seq) among the heap top and the lane
/// heads.
///
/// Why the lanes leave the order unchanged:
///  - seq grows by one per scheduled event, so a lane receives its events
///    in increasing seq;
///  - now() never decreases: run() sets it to the earliest pending time,
///    and every pending time is >= now (schedule_at clamps);
///  - a lane event's time is (now + d) + 0.0 for the lane's fixed finite
///    d >= 0, and round-to-nearest addition of a fixed d is monotone, so
///    a later append never gets an earlier time (and never needs the
///    clamp: it stores the very time schedule_at would).
/// So every lane is sorted by (time, seq) and its head is its minimum;
/// the minimum over the heap top and the lane heads is the minimum over
/// all pending events, and since seq makes every key unique, the pop
/// order is exactly the one the heap alone would give.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
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
  /// A calendar without lanes: every event goes through the heap.
  EventCalendar() = default;

  /// A calendar with one FIFO lane per distinct delay (by bit pattern) in
  /// `lane_delays`. Throws std::invalid_argument unless each is finite
  /// and >= 0, which the ordering argument in the file comment needs.
  explicit EventCalendar(std::initializer_list<double> lane_delays) {
    for (const double d : lane_delays) {
      if (!std::isfinite(d) || d < 0.0)
        throw std::invalid_argument(
            "EventCalendar: a lane delay must be finite and >= 0");
      const auto bits = std::bit_cast<std::uint64_t>(d);
      if (std::none_of(lanes_.begin(), lanes_.end(),
                       [&](const Lane& l) { return l.delay_bits == bits; }))
        lanes_.emplace_back().delay_bits = bits;
    }
  }

  /// Current simulated time (seconds).
  double now() const noexcept { return now_; }

  /// Schedule (`kind`, `arg`) at absolute time `t`, clamped to now — no
  /// time travel, and a NaN time runs now rather than corrupting the heap
  /// order. Every stored time is therefore >= +0 (`+ 0.0` turns -0 into
  /// +0) and never NaN, which is what lets key() compare bit patterns.
  void schedule_at(double t, Kind kind, std::uint32_t arg) {
    const double at = (!(t >= now_) ? now_ : t) + 0.0;
    heap_.push_back(Event{at, seq_++, kind, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedule (`kind`, `arg`) `delay` seconds from now: onto the lane
  /// whose delay bit-equals `delay`, else into the heap (a negative delay
  /// counts as 0, a NaN one runs now).
  void schedule_in(double delay, Kind kind, std::uint32_t arg) {
    const auto bits = std::bit_cast<std::uint64_t>(delay);
    for (Lane& lane : lanes_)
      if (lane.delay_bits == bits) {
        lane.push(Event{(now_ + delay) + 0.0, seq_++, kind, arg});
        return;
      }
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
    for (;;) {
      Lane* from = nullptr;  // null: the heap top is the earliest
      Key first = heap_.empty() ? kNoEvent : key(heap_.front());
      for (Lane& lane : lanes_)
        if (lane.size != 0 && key(lane.front()) < first) {
          first = key(lane.front());
          from = &lane;
        }
      if (first == kNoEvent) break;
      if (processed >= max_events) {
        hit_event_limit_ = true;
        break;
      }
      const Event ev = from ? from->pop() : pop_heap_top();
      now_ = ev.time;
      ++processed;
      handle(ev.kind, ev.arg);
    }
    events_processed_ += processed;
    return processed;
  }

  bool empty() const noexcept {
    return heap_.empty() &&
           std::all_of(lanes_.begin(), lanes_.end(),
                       [](const Lane& l) { return l.size == 0; });
  }
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

  /// Non-negative doubles order as their bit patterns do, so (time, seq)
  /// compares as one 128-bit integer, without the branch on equal times
  /// that mispredicts in a busy calendar.
  using Key = unsigned __int128;
  static Key key(const Event& e) noexcept {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(e.time)) << 64) |
           e.seq;
  }
  /// All-ones time bits are a NaN, which no stored time is.
  static constexpr Key kNoEvent = ~Key{0};

  /// Heap comparator: the "largest" element (the heap front) is the
  /// earliest (time, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return key(a) > key(b);
    }
  };

  Event pop_heap_top() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// One fixed delay's events in arrival order: a power-of-two ring that
  /// doubles when full, so it never holds more than twice its peak.
  struct Lane {
    std::uint64_t delay_bits = 0;
    std::vector<Event> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    const Event& front() const noexcept { return ring[head]; }
    void push(const Event& e) {
      if (size == ring.size()) grow();
      ring[(head + size) & (ring.size() - 1)] = e;
      ++size;
    }
    Event pop() noexcept {
      const Event e = ring[head];
      head = (head + 1) & (ring.size() - 1);
      --size;
      return e;
    }
    void grow() {
      std::vector<Event> bigger(ring.empty() ? 64 : 2 * ring.size());
      for (std::size_t i = 0; i < size; ++i)
        bigger[i] = ring[(head + i) & (ring.size() - 1)];
      ring.swap(bigger);
      head = 0;
    }
  };

  std::vector<Event> heap_;
  std::vector<Lane> lanes_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool hit_event_limit_ = false;
};

}  // namespace pmpl::runtime
