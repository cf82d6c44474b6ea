#pragma once
/// \file ws_cluster.hpp
/// Forked-rank cluster harness and the sim-vs-real validation gate.
///
/// run_ws_cluster() forks `ranks` processes, wires them into a
/// SocketTransport mesh and runs the per-rank protocol engine
/// (ws_rank.cpp) in each, while the parent plays fault-plan executioner:
/// planned crashes become real SIGKILLs at their (time-scaled) wall-clock
/// instants, planned link/token faults ride inside each child's transport.
/// Each child writes a checksummed result file; the parent aggregates the
/// survivors into a ClusterResult.
///
/// The gate (DESIGN.md §5h): the completed-region set is summarized by a
/// schedule-independent roadmap hash — FNV-1a over (region id, payload
/// hash) in ascending region order, payloads derived from
/// derive_seed(seed, region) only — so the same seed and fault plan run
/// under the DES (simulate_work_stealing) and under this harness must
/// produce *identical* hashes. Both run the same protocol core (WsRank),
/// so their schedules differ only by clock and transport; the hash is
/// what is gated. tests/test_transport.cpp and tools/ws_cluster hold
/// both transports to it.

#include <cstdint>
#include <string>
#include <vector>

#include "loadbal/ws_engine.hpp"
#include "loadbal/ws_rank.hpp"

namespace pmpl::loadbal {

/// Deterministic synthetic cluster workload: skewed service times (many
/// small regions, a heavy tail) and a deliberately imbalanced initial
/// assignment (first half of the regions on rank 0) so stealing always
/// has something to do. Identical inputs for the DES and socket runs.
struct ClusterItems {
  std::vector<WsItem> items;
  std::vector<std::uint32_t> initial;
};
ClusterItems make_cluster_items(std::uint64_t seed, std::uint32_t n,
                                std::uint32_t p);

/// Deterministic per-region payload digest (derive_seed(seed, region)
/// expanded through the region's own stream) — what the region's roadmap
/// piece hashes to, independent of who executed it or when.
std::uint64_t region_payload_hash(std::uint64_t seed, std::uint32_t region);

/// Roadmap hash over a completed set: FNV-1a over (region id, payload
/// hash) for every done region in ascending order.
std::uint64_t roadmap_hash(std::uint64_t seed, const std::vector<bool>& done);

/// Completed set of a DES run (completion_s >= 0), for hashing with
/// roadmap_hash on the sim side of the gate.
std::vector<bool> completed_set(const WsResult& des);

/// Supervisor restart policy (DESIGN.md §5i). When enabled, every child
/// checkpoints its protocol state into the cluster dir and the parent
/// re-forks a child that dies by signal or exits unhealthy (fenced,
/// wedged, any nonzero code) as generation+1, pointed at the newest
/// checkpoint its predecessors left, after a capped exponential backoff
/// (20 ms doubling to 0.5 s).
struct RestartPolicy {
  bool enabled = false;
  std::uint32_t max_restarts = 3;   ///< re-forks per rank

  /// >0: a rank whose checkpoint file stops advancing for this long is
  /// *suspected* and a replacement is forked WITHOUT killing it — the
  /// deliberate zombie scenario: if the old incarnation ever resumes
  /// (e.g. SIGCONT after a pause fault), generation fencing must
  /// neutralize it — it exits superseded (5) on an epoch fence, or
  /// self-fences (3) draining a buffered death notice that names its own
  /// stale generation; both count in zombies_fenced. 0 disables.
  double suspect_after_s = 0.0;
};

struct ClusterConfig {
  std::uint32_t ranks = 4;

  /// Per-rank engine configuration. `items`/`initial` must outlive the
  /// call; tracer is ignored (children cannot share the parent's tracer).
  /// When restart.enabled, checkpoint/restore paths and generations are
  /// managed by the supervisor and any values here are overridden.
  WsRankConfig rank;

  /// Fault plan in *simulated* seconds, like the DES takes it; crash and
  /// window instants are multiplied by rank.time_scale onto the wall
  /// clock. Crashes are delivered by the parent as SIGKILL, pause windows
  /// as SIGSTOP/SIGCONT; link/token/partition faults are evaluated inside
  /// each child's transport.
  runtime::FaultPlan faults;

  RestartPolicy restart;

  /// Non-empty: each child exports its transport + protocol trace to
  /// "<trace_path>.r<rank>.g<generation>.json" — per-incarnation, so a
  /// restarted rank's timeline stays separate from its predecessor's —
  /// with the rank's clock-sync metadata embedded for tools/trace_merge.
  /// Children also persist their trace ring to a flight-recorder fragment
  /// in the cluster dir (see WsRankConfig::flight_recorder_path); after
  /// the run the supervisor salvages fragments of incarnations that died
  /// without exporting (SIGKILL, watchdog) into the same .r<r>.g<g>.json
  /// naming, each with a synthetic "supervisor" track carrying a
  /// "salvage" instant.
  std::string trace_path;

  /// Directory for socket and result files; empty = fresh mkdtemp.
  std::string dir;

  double timeout_s = 90.0;  ///< parent's whole-run watchdog
};

struct ClusterResult {
  /// Harness-level success: every non-crashed child exited and produced a
  /// parseable result file. Protocol-level outcomes are below.
  bool ok = false;
  std::string error;  ///< first harness failure when !ok

  bool terminated_all = false;  ///< every survivor saw the termination wave
  bool all_done = false;        ///< union directory covers every region
  std::uint64_t roadmap = 0;    ///< roadmap_hash over the union
  std::vector<bool> done;       ///< union of the survivors' directories

  /// Per-rank results of each rank's FINAL incarnation; `reported[r]`
  /// says which parsed. A rank whose last incarnation was SIGKILLed (no
  /// restart budget left, or watchdog) normally doesn't report. A
  /// restored incarnation's `executed` list spans its whole lineage, so
  /// the no-duplicate-execution invariant is checked across these lists.
  std::vector<WsRankResult> ranks;
  std::vector<bool> reported;
  std::vector<bool> killed;  ///< SIGKILLed by the plan (or watchdog)
  std::vector<int> exit_codes;  ///< final incarnation; 128+sig if signaled

  // Supervisor bookkeeping (all zeros when restarts are disabled).
  std::vector<std::uint32_t> restarts;     ///< re-forks performed per rank
  std::vector<std::uint32_t> generations;  ///< final generation per rank
  std::uint64_t zombies_fenced = 0;  ///< superseded incarnations that exited
                                     ///<   cleanly (epoch-fenced exit 5, or
                                     ///<   self-fenced on a buffered death
                                     ///<   notice naming their gen, exit 3)

  /// Flight-recorder fragments the supervisor exported for incarnations
  /// that died without writing a live trace (empty when tracing is off or
  /// nobody died). Paths follow the "<trace_path>.r<r>.g<g>.json" naming.
  std::vector<std::string> traces_salvaged;

  // Survivor-summed protocol counters.
  std::uint64_t steal_requests = 0;
  std::uint64_t steal_grants = 0;
  std::uint64_t steal_denies = 0;
  std::uint64_t regions_migrated = 0;
  std::uint64_t regions_recovered = 0;
  std::uint64_t grant_retransmits = 0;
  std::uint64_t deaths_detected = 0;
  std::uint64_t executed_total = 0;  ///< region executions incl. re-runs
};

/// Fork-and-run the work-stealing protocol over real processes and Unix
/// sockets. Blocks until every child exited (or the watchdog fired).
ClusterResult run_ws_cluster(const ClusterConfig& config);

}  // namespace pmpl::loadbal
