#pragma once
/// \file transport_socket.hpp
/// Real multi-process transport over Unix-domain stream sockets.
///
/// Each rank binds `<dir>/r<rank>.sock`, connects to every lower rank
/// (retrying with capped exponential backoff while peers are still
/// starting) and accepts from every higher rank; a kHello frame on each
/// fresh connection identifies the peer. Frames travel length-prefixed
/// (runtime/transport.hpp codec) and are reassembled from per-peer byte
/// buffers, so short reads and coalesced writes are both fine.
///
/// Failure envelope: sends poll for writability up to a deadline; a send
/// into a broken pipe closes the connection and — on the connect side,
/// within a per-peer reconnect budget — re-dials once before giving up.
/// A frame that cannot be handed to the kernel is reported undelivered
/// (`send` returns false) and counted dropped; the protocol layer treats
/// that like any lost message. SIGKILLed peers look like EOF/EPIPE here
/// and like silence to the heartbeat detector above — exactly the failure
/// mode the fault harness (loadbal/ws_cluster.cpp) exists to produce.
///
/// Injected link faults are evaluated receiver-side by FrameFaults
/// against the shared cluster epoch, deterministically per arrival, so a
/// planned drop pattern reproduces without any cross-process RNG.

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "runtime/transport.hpp"

namespace pmpl::runtime {

struct SocketTransportConfig {
  std::uint32_t rank = 0;
  std::uint32_t size = 1;
  std::string dir;  ///< directory for the per-rank socket files

  /// Incarnation number of this rank, stamped into every kHello (and by
  /// the engine into every frame). Peers refuse handshakes whose
  /// generation is older than the newest they have seen from that rank —
  /// the epoch fence that keeps a resumed zombie from displacing its
  /// replacement's connection. A refused zombie is sent one kEpochFence
  /// frame (best effort) before the connection closes, so it learns it
  /// was superseded and can exit instead of spinning.
  std::uint32_t generation = 0;

  /// Restarted incarnations dial *every* peer on start (and may re-dial
  /// any peer later), not just lower ranks: the surviving higher ranks
  /// may have spent their reconnect budget on the dead predecessor and
  /// would otherwise never find the new incarnation.
  bool dial_all = false;

  /// Cluster epoch on the CLOCK_MONOTONIC timeline (seconds), captured by
  /// the launcher before forking so every rank cuts fault windows against
  /// the same zero. 0 = use this transport's construction instant.
  double epoch_steady_s = 0.0;

  double connect_timeout_s = 10.0;   ///< total budget to reach one peer
  double accept_timeout_s = 10.0;    ///< budget to hear from higher ranks

  FaultPlan faults;  ///< link/token faults, times already in wall seconds

  /// Optional transport trace track: frame_send / frame_recv /
  /// frame_drop / reconnect / clock_sync instants (arg = peer rank).
  /// frame_send/frame_recv additionally carry the wire trace id as a
  /// `corr` arg and emit paired "frame" flow events, so every delivered
  /// frame renders as an arrow between rank tracks in Perfetto.
  Tracer* tracer = nullptr;
  std::string track_name;
  std::size_t trace_capacity = 0;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Establish the full mesh: bind+listen, dial lower ranks, accept
  /// higher ones. Returns false (with a diagnostic in `error`) when a
  /// peer stayed unreachable past its budget; the transport is still
  /// usable then — the missing peer just behaves as a dead one.
  bool start(std::string* error);

  std::uint32_t rank() const noexcept override { return config_.rank; }
  std::uint32_t size() const noexcept override { return config_.size; }
  double now() const override;

  bool send(std::uint32_t to, const Frame& f) override;
  bool recv(Frame& out, double timeout_s) override;
  std::size_t pending() const override;
  const TransportMetrics& metrics() const noexcept override {
    return metrics_;
  }

  /// Flush-and-close every connection and remove this rank's socket file.
  /// Idempotent; the destructor calls it.
  void close();

  /// This rank's cluster epoch on the CLOCK_MONOTONIC timeline.
  double epoch_steady_s() const noexcept { return epoch_steady_s_; }

  /// Clock offset to `peer` as estimated from the hello round trip
  /// (estimate_clock_offset): how far the peer's `now()` runs ahead of
  /// ours, re-estimated on every reconnect handshake. Only the dialing
  /// side of a connection measures (the round trip starts at its hello);
  /// with every rank dialing all lower ranks, every rank except rank 0
  /// holds a direct estimate to rank 0 — the reference trace_merge aligns
  /// on.
  bool clock_offset_known(std::uint32_t peer) const noexcept {
    return peer < clock_known_.size() && clock_known_[peer] != 0;
  }
  double clock_offset(std::uint32_t peer) const noexcept {
    return peer < clock_offset_.size() ? clock_offset_[peer] : 0.0;
  }

 private:
  struct Peer {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;   ///< partial-frame reassembly
    std::uint64_t recv_seq = 0;        ///< arrivals, for fault rolls
    std::uint32_t redials_left = 0;    ///< connect-side reconnect budget
  };

  struct Delayed {
    double due_s = 0.0;
    std::uint64_t seq = 0;
    Frame frame;
    bool operator>(const Delayed& o) const noexcept {
      return due_s != o.due_s ? due_s > o.due_s : seq > o.seq;
    }
  };

  std::string sock_path(std::uint32_t r) const;
  bool dial(std::uint32_t peer, double budget_s);
  void adopt_fd(std::uint32_t peer, int fd, bool count_reconnect);
  void drop_connection(std::uint32_t peer);
  /// Drain readable bytes from `peer`, decoding complete frames into the
  /// ready/delayed queues. Returns false when the connection died.
  bool pump(std::uint32_t peer);
  void ingest(std::uint32_t peer, Frame frame);
  void accept_new();
  /// Read kHello off freshly accepted connections and file them under
  /// their sender's rank (a second connection from a known peer is a
  /// reconnect and replaces the old one).
  void identify_pending();
  void release_due();
  void trace_instant(const char* name, std::uint64_t arg);

  SocketTransportConfig config_;
  std::vector<Peer> peers_;
  int listen_fd_ = -1;
  /// Accepted connections whose kHello has not arrived yet.
  std::vector<Peer> unidentified_;
  std::deque<Frame> ready_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>>
      delayed_;
  std::uint64_t delay_seq_ = 0;
  /// Newest generation seen in a kHello per peer; older hellos are
  /// refused (see SocketTransportConfig::generation).
  std::vector<std::uint32_t> peer_gen_;
  FrameFaults faults_;
  TransportMetrics metrics_;
  TraceBuffer* trace_ = nullptr;
  double epoch_steady_s_ = 0.0;
  std::uint64_t send_seq_ = 0;  ///< wire trace ids (Frame::seq) handed out
  std::vector<double> clock_offset_;   ///< per-peer RTT-midpoint estimate
  std::vector<std::uint8_t> clock_known_;
};

}  // namespace pmpl::runtime
