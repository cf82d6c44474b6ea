#pragma once
/// \file transport.hpp
/// The transport concept behind the work-stealing protocol (DESIGN.md §5h).
///
/// The protocol core in loadbal/ws_rank.hpp (WsRank) is written against a
/// clock and a send; frames come back to it through its driver. Two
/// families carry them:
///
///  - the DES (runtime/transport_des.hpp): `now` is virtual time, each
///    hop is priced against a ClusterSpec and rolled against the
///    FaultInjector, and delivery is inverted control (the simulation
///    driver in loadbal/ws_engine.cpp schedules it). p cores share one
///    simulated clock.
///  - real transports (runtime/transport_socket.hpp over Unix-domain
///    sockets, and the test-only tests/transport_mem.hpp over in-process
///    mailboxes) that
///    move the `Frame` wire format below between genuinely concurrent
///    ranks, each driven by run_ws_rank() in wall time.
///
/// The Frame codec is length-prefixed and bounds-checked: a frame on the
/// wire is a little-endian u32 payload length followed by the payload, and
/// decode rejects truncated, oversized or type-garbled payloads instead of
/// trusting the peer. Link faults on real transports are evaluated
/// receiver-side by FrameFaults, a deterministic re-hash of the FaultPlan
/// (no shared RNG stream exists across processes).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "util/io_status.hpp"

namespace pmpl::runtime {

/// Protocol message kinds carried by real transports. Values are wire
/// format: renumbering breaks mixed-build clusters, so append only.
enum class FrameType : std::uint8_t {
  kHello = 0,         ///< connection handshake; a = sender's rank
  kStealRequest = 1,  ///< a = request id
  kDeny = 2,          ///< a = request id being denied
  kGrant = 3,         ///< a = grant id, b = request id, items = region ids
  kGrantAck = 4,      ///< a = grant id being acknowledged
  kHbProbe = 5,       ///< a = probe sequence number
  kHbAck = 6,         ///< a = probe sequence number echoed
  kToken = 7,         ///< a = count (two's complement), b = black, c = gen
  kDeathNotice = 8,   ///< a = the rank declared dead
  kOwnerUpdate = 9,   ///< b = new owner, items = region ids re-homed
  kRegionDone = 10,   ///< a = completed region id
  kTerminate = 11,    ///< leader-declared global termination
  kRejoin = 12,       ///< a = rejoiner's generation; items = its done set
  kDirSync = 13,      ///< a = echoed rejoin gen, b = 1 if the responder is
                      ///<   itself rejoining; items = done / claimed /
                      ///<   yours ids (see kDirSync*Bit below)
  kEpochFence = 14,   ///< a = current generation of `to`; a receiver whose
                      ///<   own generation is older must exit (superseded)
};

/// One protocol message. `a`/`b`/`c` are type-dependent scalar payloads
/// (documented per FrameType above); `items` carries region-id lists for
/// grants and ownership updates. `gen` is the sender incarnation's
/// generation number — the epoch fence: peers drop frames whose gen is
/// older than the newest they have seen from that rank, which is what
/// neutralizes a zombie (paused, superseded, then resumed) rank.
struct Frame {
  FrameType type = FrameType::kHello;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t gen = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  /// Per-transmission trace sequence number, stamped by the sending
  /// transport (1, 2, …; 0 = untraced handshake frame). Together with
  /// (from, gen) it forms the wire-level trace id behind the paired
  /// frame_send/frame_recv events and their flow arrows; retransmissions
  /// get fresh seqs because each physical transmission is its own arrow.
  /// Not part of the protocol: engines ignore it.
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> items;

  bool operator==(const Frame&) const = default;
};

/// Bit tags on kDirSync items (untagged entries are completed ids).
/// Region ids stay far below both bits in every workload this repo
/// generates, and the codec's kMaxFrameItems keeps item lists bounded.
///  - kDirSyncClaimBit: "pending region currently claimed by the
///    responder" — the rejoiner must not execute it.
///  - kDirSyncYoursBit: "pending region my directory credits to *you*" —
///    lets a rejoiner whose checkpoint was lost re-adopt regions that
///    were granted to its previous incarnation.
inline constexpr std::uint32_t kDirSyncClaimBit = 0x80000000u;
inline constexpr std::uint32_t kDirSyncYoursBit = 0x40000000u;

/// Hard cap on `items` accepted off the wire — far above any real grant
/// (steal_max_items is single digits; ownership updates carry one crashed
/// rank's queue) but small enough that a garbled length cannot drive an
/// allocation bomb.
inline constexpr std::uint32_t kMaxFrameItems = 1u << 20;

/// Encoded payload size of `f` (excludes the u32 length prefix).
std::size_t frame_payload_size(const Frame& f) noexcept;

/// Append the length-prefixed encoding of `f` to `out`.
void encode_frame(const Frame& f, std::vector<std::uint8_t>& out);

/// Decode one payload (the bytes after a length prefix) of exactly `n`
/// bytes. Returns false — leaving `out` unspecified — on any malformation:
/// short/overlong payload, unknown type, or an items count exceeding
/// kMaxFrameItems or the actual bytes present.
bool decode_frame_payload(const std::uint8_t* data, std::size_t n,
                          Frame& out) noexcept;

/// What a real transport measures about itself. Protocol-level health
/// (heartbeat misses, grant retransmits) is counted by the engine on top;
/// this is the frame layer only.
struct TransportMetrics {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_dropped = 0;   ///< injected drops + undeliverable sends
  std::uint64_t frames_delayed = 0;   ///< injected extra-delay holds
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t reconnects = 0;       ///< re-established peer connections
  std::uint64_t connect_retries = 0;  ///< backoff rounds during setup
  std::uint64_t send_timeouts = 0;    ///< sends abandoned at the deadline
  std::uint64_t frames_stale = 0;     ///< frames refused: stale generation
};

class MetricsRegistry;

/// Publish every TransportMetrics field into `reg` as "<prefix><field>"
/// counters (same idiom as publish(FaultMetrics)).
void publish(MetricsRegistry& reg, const TransportMetrics& m,
             const std::string& prefix);

/// NTP-style clock-offset estimate from one hello round trip: the dialer
/// sends its clock reading `t0`, the acceptor replies with its own reading
/// `t1` (echoing t0), and the dialer receives the reply at `t2`. Under
/// symmetric path delay the peer's clock reads `t1` at local midpoint
/// (t0+t2)/2, so the returned value is how far the *peer's* clock is ahead
/// of the local one; the error is bounded by half the round-trip time.
/// Mapping a peer timestamp into local time is then `t_local = t_peer -
/// offset`.
constexpr double estimate_clock_offset(double t0, double t1,
                                       double t2) noexcept {
  return t1 - 0.5 * (t0 + t2);
}

/// A real point-to-point transport among ranks 0..size-1. Implementations:
/// SocketTransport (processes over Unix-domain sockets), and the tests'
/// MemTransport (threads over mailboxes, tests/transport_mem.hpp). The
/// engine owns exactly one and is the only caller — implementations need
/// not be reentrant.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::uint32_t rank() const noexcept = 0;
  virtual std::uint32_t size() const noexcept = 0;

  /// Seconds since the cluster epoch (shared across ranks as precisely as
  /// the launcher can arrange; fault-plan windows are cut against this).
  virtual double now() const = 0;

  /// Queue `f` to `to`. Returns false when the frame is known undelivered
  /// (peer unreachable and the reconnect budget is spent, or the send
  /// timed out); true means handed to the peer's kernel/mailbox, which is
  /// not an acknowledgement of processing.
  virtual bool send(std::uint32_t to, const Frame& f) = 0;

  /// Dequeue the next frame into `out`, waiting up to `timeout_s`.
  /// Returns false on timeout. Injected link faults are applied here:
  /// dropped frames never surface, delayed frames surface late.
  virtual bool recv(Frame& out, double timeout_s) = 0;

  /// Frames accepted from peers but not yet returned by recv — including
  /// frames parked in the injected-delay queue. The engine must not treat
  /// itself as quiescent (forward a termination token) while this is
  /// nonzero: a delayed grant from a since-dead sender is still "in
  /// flight" here and nowhere else.
  virtual std::size_t pending() const = 0;

  virtual const TransportMetrics& metrics() const noexcept = 0;
};

/// Receiver-side link-fault evaluation for real transports. Fate rolls are
/// a pure hash of (plan seed, from, to, per-peer arrival index) via FNV-1a,
/// so a rank's drop pattern is reproducible run-to-run without any cross-
/// process RNG stream. Windows are cut against transport `now` — the
/// launcher pre-scales plan times to wall seconds.
class FrameFaults {
 public:
  FrameFaults() = default;
  explicit FrameFaults(const FaultPlan& plan) : plan_(plan) {}

  struct Fate {
    bool dropped = false;
    double extra_delay_s = 0.0;
  };

  /// Fate of the `seq`-th frame received from `from` at `to`, arriving at
  /// time `t`. Tokens additionally roll the plan's token faults.
  Fate on_frame(std::uint32_t from, std::uint32_t to, std::uint64_t seq,
                double t, bool is_token) const noexcept;

  bool active() const noexcept { return !plan_.empty(); }
  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
};

}  // namespace pmpl::runtime
