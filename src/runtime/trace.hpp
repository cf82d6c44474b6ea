#pragma once
/// \file trace.hpp
/// Low-overhead tracing substrate: per-track fixed-capacity ring buffers of
/// 32-byte trace events plus a Chrome-trace-event exporter.
///
/// Design constraints (DESIGN.md §5e):
///  - Allocation-free on the hot path: a track's ring is sized once at
///    creation; emitting overwrites the oldest retained event when full and
///    counts the drop, so steady-state overhead is bounded regardless of
///    run length.
///  - Single-writer per track: a worker thread owns its thread track, and
///    the (single-threaded) DES owns its virtual-time rank tracks, so the
///    emit path needs no locks or CAS loops — one release store publishes
///    each event. The Tracer's registry mutex is touched only at track
///    creation.
///  - Disabled means absent: every instrumentation site is gated on a
///    `Tracer*` that defaults to nullptr. Tracing never draws randomness,
///    never schedules DES events, and never changes control flow, so an
///    untraced run is bit-identical to a build without the subsystem.
///
/// Timestamps are plain `double` seconds. Thread tracks stamp wall time
/// against the Tracer's epoch (Tracer::now_s); DES tracks stamp *virtual*
/// time (EventCalendar::now), so a simulated cluster run exports a real
/// Gantt chart. The exporter writes Chrome trace-event JSON loadable in
/// Perfetto or chrome://tracing: one track ("thread") per TraceBuffer,
/// span begin/end pairs, instant events and counter samples.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/io_status.hpp"

namespace pmpl::runtime {

class MetricsRegistry;

enum class TraceType : std::uint8_t {
  kBegin = 0,      ///< span start ("B")
  kEnd = 1,        ///< span end ("E")
  kInstant = 2,    ///< point event ("i")
  kCounter = 3,    ///< counter sample ("C"); arg is the sampled value
  kFlowStart = 4,  ///< flow arrow tail ("s"); arg is the correlation id
  kFlowEnd = 5,    ///< flow arrow head ("f"); arg is the correlation id
};

/// Pack a (source rank, generation, sequence) triple into the 32-bit
/// correlation id used by flow events and `corr` args. 6 bits of rank
/// (ranks are capped at 64), 6 bits of generation, 20 bits of sequence;
/// generation and sequence wrap, which can alias arrows only after 2^20
/// frames from one incarnation — harmless for visualization, and distinct
/// flow categories ("frame"/"steal"/"grant"/"exec") never match each other.
/// Zero is reserved for "no correlation" (the exporter omits args.corr
/// for it), so the one packing that collapses to 0 — rank 0, generation
/// 0 mod 64, sequence 0 mod 2^20 — maps to the all-ones sentinel instead;
/// both endpoints compute the same value, so flow pairing still holds.
constexpr std::uint32_t trace_corr(std::uint32_t src, std::uint32_t generation,
                                   std::uint64_t seq) noexcept {
  const std::uint32_t c = ((src & 0x3fu) << 26) | ((generation & 0x3fu) << 20) |
                          static_cast<std::uint32_t>(seq & 0xfffffu);
  return c != 0 ? c : 0xffffffffu;
}

/// One trace record. `name` must point at a string with static storage
/// duration (the buffer stores the pointer, never a copy). 32 bytes so a
/// default track costs 8192 * 32 B = 256 KiB and an event write is one
/// cache line touch. `arg2` rides in what used to be padding: flow events
/// carry their correlation id in `arg` and an auxiliary value (peer rank)
/// in `arg2`; other event types may carry a correlation id in `arg2`,
/// exported as a `corr` arg when nonzero.
struct TraceEvent {
  double t = 0.0;              ///< seconds (wall-since-epoch or virtual)
  const char* name = nullptr;  ///< static string, not owned
  std::uint64_t arg = 0;       ///< payload: region id, victim rank, value…
  TraceType type = TraceType::kInstant;
  std::uint8_t pad_[3] = {};   ///< explicit padding (keeps the 32 B claim)
  std::uint32_t arg2 = 0;      ///< aux payload / 32-bit correlation id
};
static_assert(sizeof(TraceEvent) == 32, "trace events are 32 bytes");

/// Fixed-capacity single-writer ring of trace events, drop-oldest.
///
/// Thread-safety contract: exactly one thread calls the emit methods of a
/// given buffer; any thread may call total()/dropped() concurrently (they
/// read one atomic). snapshot() and the exporter additionally require the
/// writer to be quiescent (threads joined / DES drained) to see a
/// consistent ring — the usual collect-at-end discipline.
class TraceBuffer {
 public:
  TraceBuffer(std::string track_name, std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity), name_(std::move(track_name)) {}

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Emit one event at explicit time `t` (virtual-time tracks).
  void emit_at(TraceType type, const char* name, double t,
               std::uint64_t arg = 0, std::uint32_t arg2 = 0) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceEvent& slot = ring_[static_cast<std::size_t>(h % ring_.size())];
    slot.t = t;
    slot.name = name;
    slot.arg = arg;
    slot.type = type;
    slot.arg2 = arg2;
    head_.store(h + 1, std::memory_order_release);
  }

  void begin_at(const char* name, double t, std::uint64_t arg = 0) noexcept {
    emit_at(TraceType::kBegin, name, t, arg);
  }
  void end_at(const char* name, double t, std::uint64_t arg = 0) noexcept {
    emit_at(TraceType::kEnd, name, t, arg);
  }
  void instant_at(const char* name, double t, std::uint64_t arg = 0,
                  std::uint32_t corr = 0) noexcept {
    emit_at(TraceType::kInstant, name, t, arg, corr);
  }
  void counter_at(const char* name, double t, std::uint64_t value) noexcept {
    emit_at(TraceType::kCounter, name, t, value);
  }
  /// Flow arrow tail/head. `name` doubles as the flow category in the
  /// export (arrows only bind within a category), `corr` is the 32-bit
  /// correlation id (see trace_corr) and `aux` the peer rank or similar.
  void flow_start_at(const char* name, double t, std::uint32_t corr,
                     std::uint32_t aux = 0) noexcept {
    emit_at(TraceType::kFlowStart, name, t, corr, aux);
  }
  void flow_end_at(const char* name, double t, std::uint32_t corr,
                   std::uint32_t aux = 0) noexcept {
    emit_at(TraceType::kFlowEnd, name, t, corr, aux);
  }

  const std::string& track_name() const noexcept { return name_; }
  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Events ever emitted on this track.
  std::uint64_t total() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Events overwritten because the ring was full (exact: total - retained).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t t = total();
    const std::uint64_t cap = ring_.size();
    return t > cap ? t - cap : 0;
  }

  /// Retained events, oldest first. Writer must be quiescent.
  std::vector<TraceEvent> snapshot() const {
    const std::uint64_t t = total();
    const std::uint64_t cap = ring_.size();
    const std::uint64_t n = t < cap ? t : cap;
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = t - n; i < t; ++i)
      out.push_back(ring_[static_cast<std::size_t>(i % cap)]);
    return out;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::atomic<std::uint64_t> head_{0};  ///< total emitted; next slot h%cap
  std::string name_;
};

struct TracerOptions {
  /// Ring capacity (events) for thread tracks and for virtual tracks
  /// created without an explicit capacity.
  std::size_t default_capacity = 1 << 13;
};

/// Process-level registry of trace tracks. Instrumentation sites hold a
/// `Tracer*` (nullptr = tracing off) and ask it for tracks:
///  - thread_track(): one lazily-created track per calling thread, stamped
///    with wall time (now_s);
///  - track(name): an explicitly named virtual track (DES ranks, phase
///    timelines), stamped by the caller with whatever clock it owns.
/// Track creation takes a mutex; emitting never does.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wall seconds since this tracer was constructed (the trace epoch).
  double now_s() const noexcept;

  /// The calling thread's track, created on first use. `name_hint` names
  /// the track at creation (later calls ignore it); defaults to
  /// "thread <n>" in registration order.
  TraceBuffer* thread_track(const char* name_hint = nullptr);

  /// Create a named virtual track. Names need not be unique; each call
  /// creates a fresh track. `capacity` 0 uses the default.
  TraceBuffer* track(std::string name, std::size_t capacity = 0);

  /// All tracks in creation order. Writers must be quiescent before the
  /// returned buffers are snapshot.
  std::vector<const TraceBuffer*> tracks() const;

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> tracks_;
  const std::chrono::steady_clock::time_point epoch_;
  TracerOptions options_;
  /// Process-unique id. The per-thread track cache is keyed on this, not
  /// on the Tracer's address: a stack-allocated tracer destroyed and
  /// replaced by another at the same address must not satisfy a stale
  /// cache entry with a dangling buffer.
  const std::uint64_t id_;
};

/// RAII wall-time span on a thread track: begin at construction, end at
/// destruction. A null buffer (tracing off) makes both no-ops.
class TraceSpan {
 public:
  TraceSpan(const Tracer* tracer, TraceBuffer* buf, const char* name,
            std::uint64_t arg = 0) noexcept
      : tracer_(tracer), buf_(buf), name_(name) {
    if (buf_) buf_->begin_at(name_, tracer_->now_s(), arg);
  }
  ~TraceSpan() {
    if (buf_) buf_->end_at(name_, tracer_->now_s());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const Tracer* tracer_;
  TraceBuffer* buf_;
  const char* name_;
};

/// Write Chrome trace-event JSON (the format Perfetto and chrome://tracing
/// load): one "thread" per track, `ts` in microseconds, span begin/end
/// ("B"/"E"), instants ("i"), counters ("C"), flow arrows ("s"/"f" with a
/// hex `id` and the event name as `cat`) and per-track metadata ("M")
/// naming the tracks. End events orphaned by ring drop-oldest (their Begin
/// was overwritten) are skipped so the output is always well-formed; spans
/// left open by a crash are closed by the viewer at trace end.
/// `otherData` records per-track total/dropped counts; `extra_other_data`,
/// when non-empty, must be one or more raw JSON members ("\"k\": {...}")
/// appended verbatim into `otherData` (the clock metadata trace_merge
/// aligns on). Writers must be quiescent. Returns false when the file
/// cannot be written.
bool export_chrome_trace(const Tracer& tracer, const std::string& path,
                         const std::string& extra_other_data = {});
void export_chrome_trace(const Tracer& tracer, std::FILE* f,
                         const std::string& extra_other_data = {});

/// Owning, serializable copy of a Tracer's retained contents — the unit
/// the flight recorder persists and the supervisor salvages. Event names
/// are interned in `names` (TraceEvent stores only static pointers; a
/// snapshot must own its strings to survive a round-trip through disk).
struct TraceSnapshot {
  struct Event {
    double t = 0.0;
    std::uint64_t arg = 0;
    std::uint32_t name_ix = 0;  ///< index into TraceSnapshot::names
    std::uint32_t arg2 = 0;
    TraceType type = TraceType::kInstant;
  };
  struct Track {
    std::string name;
    std::uint64_t total = 0;
    std::uint64_t dropped = 0;
    std::vector<Event> events;
  };
  std::vector<std::string> names;  ///< interned event names
  std::vector<Track> tracks;
  std::uint32_t rank = 0;        ///< owning rank (flight-recorder meta)
  std::uint32_t generation = 0;  ///< owning incarnation

  /// Intern `name`, returning its index.
  std::uint32_t intern(const std::string& name);
};

/// Copy every track's retained events out of `tracer`. Writers must be
/// quiescent (same contract as the exporter).
TraceSnapshot snapshot_tracer(const Tracer& tracer);

/// Persist / recover a snapshot through the util/state_file atomic
/// checksummed container (kind kStateKindTraceRing): a crash mid-write
/// leaves the previous fragment intact, and truncated or bit-flipped
/// fragments are rejected on load, never misread.
bool save_trace_snapshot(const TraceSnapshot& snap, const std::string& path);
std::optional<TraceSnapshot> load_trace_snapshot(const std::string& path,
                                                 IoStatus* status = nullptr);

/// Export a snapshot as the same Chrome trace JSON the live exporter
/// writes (how a salvaged flight-recorder fragment becomes mergeable).
bool export_chrome_trace(const TraceSnapshot& snap, const std::string& path,
                         const std::string& extra_other_data = {});

/// Publish the tracer's aggregate event/drop counts plus per-track
/// high-water marks (retained events, i.e. min(total, capacity)) into a
/// metrics registry: counters `<prefix>events_total` /
/// `<prefix>events_dropped`, gauges `<prefix>tracks` and
/// `<prefix>hwm/<track name>`. One-shot at collection time — calling twice
/// double-counts the counters.
void publish_trace_metrics(MetricsRegistry& registry, const Tracer& tracer,
                           const std::string& prefix = "trace/");

}  // namespace pmpl::runtime
