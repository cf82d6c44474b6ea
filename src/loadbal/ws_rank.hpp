#pragma once
/// \file ws_rank.hpp
/// The work-stealing protocol, once: one rank's event-driven core.
///
/// WsRank is what ONE rank does with only its own state and the frames it
/// receives — steal requests/denies, acked grants with retransmit,
/// heartbeat fencing, ring-successor recovery from a replicated region
/// directory, and token-ring termination that sums *unacked grants*. It
/// never blocks and never reads a clock of its own: a driver feeds it
/// frames (on_frame), wakes it at next_wakeup() (on_timer), runs the
/// regions it hands out (start_region / finish_region), and carries its
/// frames through a WsLink. Two drivers exist (DESIGN.md §5h):
///  - run_ws_rank() below: one core in wall time over a real Transport
///    (forked processes over sockets, or threads over the tests'
///    MemTransport in tests/transport_mem.hpp);
///  - simulate_work_stealing() (ws_engine.hpp): p cores in virtual time
///    over runtime/transport_des.hpp, plus the god-view tallies.
///
/// Failure machinery — directory broadcasts, heartbeats, request/grant
/// timeouts, token hop acks, the grant dedup set and per-peer generations
/// — runs only when a peer can fail (`resilient`): always over real
/// transports, and in the DES only under a non-empty FaultPlan, so a
/// fault-free replay pays for none of it.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "loadbal/steal_policy.hpp"
#include "loadbal/ws_engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/topology.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport.hpp"
#include "util/io_status.hpp"

namespace pmpl::loadbal {

struct WsRankConfig {
  /// Every rank receives the full item table and initial assignment (same
  /// inputs as simulate_work_stealing); service_s values are in simulated
  /// seconds and are mapped to wall time by time_scale.
  std::span<const WsItem> items;
  std::span<const std::uint32_t> initial;

  StealPolicyKind policy = StealPolicyKind::kHybrid;
  std::uint32_t rand_k = 2;
  std::uint64_t seed = 0x5eedULL;
  std::uint32_t steal_max_items = 1;
  std::uint32_t give_up_after = 3;

  double time_scale = 1.0;  ///< wall seconds per simulated service second

  /// Give up entirely when no frame arrives for this long after the last
  /// activity — a liveness backstop against protocol wedges; 0 disables.
  double run_timeout_s = 60.0;

  // --- restart / rejoin (DESIGN.md §5i) -------------------------------

  /// Incarnation number of this process for rank `net.rank()`. 0 is the
  /// first launch; the supervisor increments it per restart. Stamped into
  /// every frame; peers reject frames from older generations.
  std::uint32_t generation = 0;

  /// Durable rank state (util/state_file container, kStateKindWsRank).
  /// Written after every completion *before* its kRegionDone broadcast
  /// (so a completion a peer heard about is always durable), plus
  /// periodically. Empty disables.
  std::string checkpoint_path;

  /// Checkpoint of the previous incarnation to resume from (typically its
  /// checkpoint_path). Absent/corrupt degrades to a fresh start — the
  /// rejoin sync then rebuilds the directory view from the peers.
  std::string restore_path;

  /// Directory holding every rank's checkpoints under the
  /// rank_checkpoint_path() naming. When set, a rank that learns of a
  /// peer's death reads the dead rank's newest durable checkpoint and
  /// merges its completed-region bits *before* reclaiming or re-homing
  /// anything — closing the window where a completion's kRegionDone
  /// broadcast died with its sender (which would otherwise re-execute
  /// the region). Empty disables the merge.
  std::string checkpoint_dir;

  /// Restarted incarnations (generation > 0) run the rejoin protocol
  /// before executing anything: broadcast kRejoin, collect kDirSync
  /// replies from every live peer (retransmitting to the silent ones), and
  /// reconcile queue ownership. A deadline bounds the wait when peers are
  /// dead or already gone.

  runtime::Tracer* tracer = nullptr;
  std::string trace_prefix;
  std::size_t trace_capacity = 0;

  /// Flight recorder: when set (and a tracer is attached), the whole trace
  /// ring is persisted to this path through the util/state_file atomic
  /// checksummed container (kStateKindTraceRing) at checkpoint boundaries
  /// — written right *after* the durable checkpoint, so the fragment never
  /// describes work the checkpoint has not yet made durable; throttled,
  /// since serializing the ring is much heavier than a checkpoint — and on
  /// every exit. A SIGKILLed rank therefore leaves a recent fragment for
  /// the supervisor to salvage. Empty disables.
  std::string flight_recorder_path;
};

/// Protocol timers. Derived from the clock that drives the core, never
/// configured: wall_clock() keeps constants sized for a loaded CI box
/// (hundreds of ms of scheduling jitter must not fence a live rank);
/// virtual_time() derives them from the cluster's latencies and the fault
/// plan's worst link loss.
struct WsTimers {
  double steal_timeout_s = 0.0;  ///< silence => treat a request as denied
  double grant_timeout_s = 0.0;  ///< first unacked-grant retransmit; doubles
                                 ///<   up to 16x
  double token_retry_s = 0.0;    ///< unacked token hop retransmit
  double heartbeat_period_s = 0.0;
  std::uint32_t heartbeat_misses = 0;  ///< consecutive misses => dead
  double token_regen_initial_s = 0.0;  ///< leader re-initiates a lost round;
  double token_regen_max_s = 0.0;      ///<   doubles up to this
  double backoff_initial_s = 0.0;  ///< thief retry after a fully denied
  double backoff_max_s = 0.0;      ///<   round; doubles up to the max
  /// Gap between a failed detection round and the next:
  /// clamp(pace_frac * now, pace_min_s, pace_max_s), so the ring is not
  /// saturated by detection traffic.
  double pace_min_s = 0.0;
  double pace_max_s = 0.0;
  double pace_frac = 0.0;
  double rejoin_timeout_s = 0.0;     ///< rejoin gives up waiting after this
  double rejoin_retransmit_s = 0.0;  ///< kRejoin resend to silent peers
  double checkpoint_period_s = 0.0;
  double flight_record_period_s = 0.0;

  static WsTimers wall_clock();
  /// `p` ranks on `cluster` under `faults`: short RPC-style timeouts keyed
  /// to the remote latency, and a heartbeat miss threshold that keeps the
  /// per-window false-positive probability ~1e-9 at the plan's worst link
  /// loss.
  static WsTimers virtual_time(const runtime::ClusterSpec& cluster,
                               const runtime::FaultPlan& faults,
                               std::uint32_t p);
};

/// What one rank reports at exit; the launcher aggregates these. The
/// `done` bitmap is this rank's directory view (own executions plus
/// broadcast completions), whose union across survivors is the completed
/// set the roadmap hash is computed over.
struct WsRankResult {
  std::uint32_t rank = 0;
  std::uint32_t generation = 0;
  bool terminated = false;  ///< saw (or declared) the termination broadcast
  bool fenced = false;      ///< received a death notice naming itself
  bool superseded = false;  ///< epoch-fenced: a newer incarnation exists
  bool restored = false;    ///< state resumed from a checkpoint
  double busy_s = 0.0;      ///< wall seconds executing regions
  double finish_s = 0.0;    ///< transport time at loop exit
  std::vector<std::uint32_t> executed;  ///< region ids this rank completed
                                        ///<   (restored + this incarnation)
  std::vector<bool> done;               ///< directory: completed anywhere

  std::uint64_t local_tasks = 0;
  std::uint64_t stolen_tasks = 0;
  std::uint64_t steal_requests = 0;
  std::uint64_t steal_grants = 0;
  std::uint64_t steal_denies = 0;
  std::uint64_t regions_migrated = 0;  ///< items granted away
  std::uint64_t token_rounds = 0;      ///< rounds this rank initiated
  std::uint64_t steal_retries = 0;     ///< request timeouts
  std::uint64_t grant_retransmits = 0;
  std::uint64_t regions_recovered = 0;  ///< re-homed here off dead ranks
  std::uint64_t heartbeat_probes = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t deaths_detected = 0;  ///< death notices this rank issued
  std::uint64_t tokens_regenerated = 0;
  std::uint64_t stale_frames_rejected = 0;  ///< old-generation frames dropped
  std::uint64_t checkpoints_written = 0;
  std::uint64_t rejoin_syncs = 0;  ///< kDirSync replies received while rejoining

  runtime::TransportMetrics transport;
};

/// One unacked outgoing grant, as persisted in a rank checkpoint. The
/// restored incarnation re-enters these into its retransmit ledger, and
/// the chaos harness asserts the no-duplicate-execution invariant from
/// the union of executed lists against these ledgers.
struct RankGrantRecord {
  std::uint32_t thief = 0;
  std::uint64_t grant_id = 0;
  std::uint64_t req_id = 0;
  std::vector<std::uint32_t> items;
};

/// Durable per-rank protocol state — everything a restarted incarnation
/// needs to resume without re-executing completed regions: the region
/// directory (owner/done), its queue, the RNG cursor, the unacked-grant
/// ledger, the grant dedup set, and the protocol counters. Saved in the
/// util/state_file container (atomic tmp+rename, dual FNV-1a checksums).
struct RankCheckpoint {
  std::uint32_t rank = 0;
  std::uint32_t generation = 0;   ///< incarnation that wrote this
  std::uint64_t fingerprint = 0;  ///< workload/config identity
  std::uint64_t rng_state[4] = {0, 0, 0, 0};
  std::vector<std::uint32_t> queue;
  std::vector<std::uint32_t> owner;
  std::vector<bool> done;
  std::vector<bool> stolen;
  std::vector<bool> death_known;
  std::vector<std::uint32_t> peer_gen;  ///< newest generation seen per peer
  std::vector<std::uint32_t> executed;
  std::vector<RankGrantRecord> ledger;
  std::vector<std::uint64_t> seen_grants;
  std::uint64_t next_req_id = 1;
  std::uint64_t next_grant_id = 1;
  double busy_s = 0.0;
  std::uint64_t counters[14] = {};  ///< WsRankResult counters, in order:
                                    ///< local_tasks..tokens_regenerated
};

/// "<dir>/ckpt_<rank>.g<gen>" — the per-incarnation checkpoint naming
/// convention the cluster supervisor and the death-recovery merge agree
/// on. Per-generation files keep a resumed zombie from clobbering its
/// replacement's durable state.
std::string rank_checkpoint_path(const std::string& dir, std::uint32_t rank,
                                 std::uint32_t gen);

/// "<dir>/trace_<rank>.g<gen>" — the flight-recorder fragment naming
/// convention, parallel to the checkpoint naming above (and, like it,
/// per-incarnation so a zombie cannot clobber its replacement's fragment).
/// The supervisor exports salvaged fragments as
/// "<trace_path>.r<rank>.g<gen>.json", the same per-rank per-generation
/// naming the ranks themselves use for live trace exports.
std::string flight_recorder_path(const std::string& dir, std::uint32_t rank,
                                 std::uint32_t gen);

/// Serialize atomically. Returns false on I/O failure.
bool save_rank_checkpoint(const RankCheckpoint& c, const std::string& path);

/// Load and fully validate (container checksums plus payload bounds).
/// nullopt with the precise IoStatus on any malformation.
std::optional<RankCheckpoint> load_rank_checkpoint(
    const std::string& path, IoStatus* status = nullptr);

/// Serialize a rank's exit report atomically (util/state_file container,
/// kStateKindWsResult; meta0 = rank, meta1 = generation, as a checkpoint).
/// Returns false on I/O failure.
bool save_rank_result(const WsRankResult& r, const std::string& path);

/// Load and fully validate the report of incarnation `generation` of
/// `rank`. nullopt with the precise IoStatus on any malformation, and
/// kMalformed for a sound file that names another rank or generation.
std::optional<WsRankResult> load_rank_result(const std::string& path,
                                             std::uint32_t rank,
                                             std::uint32_t generation,
                                             IoStatus* status = nullptr);

/// Publish the protocol-health counters (retransmits, heartbeat misses,
/// recoveries) and the nested transport metrics as "<prefix>…".
void publish(runtime::MetricsRegistry& reg, const WsRankResult& r,
             const std::string& prefix);

/// A core's window on the world: its driver's clock and transport.
class WsLink {
 public:
  virtual ~WsLink() = default;
  virtual double now() const = 0;
  /// Hand `f` (from/to/gen already stamped) to the transport. False when
  /// the peer is known unreachable; a frame lost later looks delivered.
  virtual bool send(const runtime::Frame& f) = 0;
  /// Frames addressed to this rank that arrived but have not reached
  /// on_frame yet. A held token waits while this is nonzero: a grant
  /// queued behind it must blacken the rank before the token moves on.
  virtual std::size_t pending() const { return 0; }
  /// Freeze fence, called between a completion's durable checkpoint and
  /// its claim: deliver whatever arrived while the rank was not polling
  /// (a wall-clock rank may have been SIGSTOPped and declared dead).
  virtual void fence() {}
  /// Observer: `regions` of dead rank `dead` were just re-homed here.
  virtual void rehomed(std::uint32_t dead, std::size_t regions) {
    (void)dead;
    (void)regions;
  }
};

/// One rank's protocol state machine. Never blocks: every entry point
/// handles one input and returns. The driver loop is
///   start(); then, until stopped(): deliver frames (on_frame), wake at
///   next_wakeup() (on_timer), and whenever !busy() ask start_region()
///   for a region to run, reporting it back with finish_region().
class WsRank {
 public:
  /// Rank `rank` of `p`, starting with `queue` (its initial regions).
  /// `resilient` switches the failure machinery on (file comment). `link`,
  /// `cfg` and `timers` must outlive the core.
  WsRank(WsLink& link, std::uint32_t rank, std::uint32_t p,
         const WsRankConfig& cfg, const WsTimers& timers, bool resilient,
         std::vector<std::uint32_t> queue);
  ~WsRank();
  WsRank(WsRank&&) noexcept;
  WsRank& operator=(WsRank&&) noexcept;

  /// Arm the timers; a restarted incarnation (generation > 0) restores
  /// its checkpoint and starts the rejoin handshake.
  void start();
  void on_frame(const runtime::Frame& f);
  /// Fire every timer due at `now` (the link's clock).
  void on_timer(double now);
  /// Earliest armed deadline; +inf when nothing is armed.
  double next_wakeup() const;

  /// Region handshake: the next region to execute (the core is busy until
  /// finish_region), or nullopt when the core is busy, idle or stopped.
  std::optional<std::uint32_t> start_region();
  /// The region handed out last finished after `busy_s` seconds. Returns
  /// whether the completion was committed (false: the rank stopped, or a
  /// peer completed the region first).
  bool finish_region(double busy_s);
  /// True when the running region has already been completed elsewhere,
  /// so the driver may cut its execution short.
  bool region_cancelled() const;

  /// The driver stopped this rank (a crash): close its open region span,
  /// mark the trace, and ignore every later input.
  void halt();

  bool busy() const;
  /// Terminated, fenced, superseded or halted: the core does nothing more.
  bool stopped() const;
  /// This rank detected global termination itself (it led the round).
  bool declared() const;
  /// Rank `r` was declared dead (run_ws_rank's terminate broadcast skips it).
  bool known_dead(std::uint32_t r) const;
  /// Link time of the last protocol progress (run_ws_rank's liveness
  /// backstop measures run_timeout_s from it).
  double last_activity() const;
  /// This rank's trace track (nullptr when tracing is off).
  runtime::TraceBuffer* trace() const;
  const WsRankResult& result() const;
  /// Final report (directory included); flushes the flight recorder.
  WsRankResult finish();

 private:
  class Core;
  std::unique_ptr<Core> core_;
};

/// Run the work-stealing protocol as rank `net.rank()` until global
/// termination (or the liveness backstop): the wall-clock driver of one
/// WsRank. Blocks; drives `net` from the calling thread only.
WsRankResult run_ws_rank(runtime::Transport& net, const WsRankConfig& config);

}  // namespace pmpl::loadbal
