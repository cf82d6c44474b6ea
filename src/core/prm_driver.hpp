#pragma once
/// \file prm_driver.hpp
/// Uniform-subdivision parallel PRM (Algorithm 1) with load balancing
/// (Algorithms 3 & 4): workload measurement and schedule replay.
///
/// `build_prm_workload` executes the real computation once (deterministic
/// per-region seeds) through the same region task as parallel_build_prm.
/// `simulate_prm_run` replays the measured costs under a strategy,
/// processor count and cluster, producing the phase times, load profiles,
/// CVs and remote-access counts the paper's figures report.

#include "core/profile.hpp"
#include "core/region_grid.hpp"
#include "core/strategies.hpp"
#include "env/environment.hpp"
#include "loadbal/bulk_sync.hpp"
#include "loadbal/ws_engine.hpp"
#include "planner/prm.hpp"

namespace pmpl::core {

/// Workload-construction parameters.
struct PrmWorkloadConfig {
  std::size_t total_attempts = 1 << 15;  ///< N sampling attempts overall
  planner::PrmParams prm;                ///< k, resolution, ...
  std::uint64_t seed = 1;
  /// Cooperative stop: measurement ends after the current granule and the
  /// workload comes back partial (see Workload::regions_measured).
  const runtime::CancelToken* cancel = nullptr;
};

/// Execute Algorithm 1's computation over `grid` on one worker per
/// hardware thread, measuring every region and region-edge. The returned
/// workload contains the full roadmap and does not depend on the worker
/// count.
Workload build_prm_workload(const env::Environment& e, const RegionGrid& grid,
                            const PrmWorkloadConfig& config);

/// Simulated phase breakdown (Fig 7a's bars).
struct PhaseBreakdown {
  double setup_s = 0.0;           ///< region graph construction
  double sampling_s = 0.0;        ///< node generation
  double redistribution_s = 0.0;  ///< weighting + partition + migration
  double node_connection_s = 0.0; ///< dominant phase (~90% at baseline)
  double region_connection_s = 0.0;
  double total() const noexcept {
    return setup_s + sampling_s + redistribution_s + node_connection_s +
           region_connection_s;
  }
};

/// Replay parameters.
struct PrmRunConfig {
  std::uint32_t procs = 16;
  runtime::ClusterSpec cluster = runtime::ClusterSpec::hopper();
  Strategy strategy = Strategy::kNoLB;
  std::uint64_t seed = 1;
  /// Failure scenario for the replay. Work-stealing strategies get the
  /// full treatment (crashes, lossy links, token loss, stragglers) through
  /// the DES engine; the bulk-synchronous strategies — which have no
  /// recovery protocol to model — apply the straggler windows to their
  /// phase timing, showing how a barrier amplifies one slow rank.
  runtime::FaultPlan faults;
  /// Tracing sink; nullptr disables. When set, the replay emits a
  /// "<trace_prefix>phases" virtual track whose spans lay the reported
  /// PhaseBreakdown end-to-end on the simulated timeline (span sums match
  /// the phase totals exactly). With `trace_ranks` additionally set and a
  /// work-stealing strategy, the DES engine gets one virtual-time track
  /// per simulated processor (region spans, steal traffic, fault markers)
  /// — sized by `trace_rank_capacity` (0 = tracer default); mind the
  /// memory at large `procs`. Tracing never perturbs the replay.
  runtime::Tracer* tracer = nullptr;
  std::string trace_prefix;
  bool trace_ranks = false;
  std::size_t trace_rank_capacity = 0;
};

/// Replay outcome: everything the figures plot.
struct PrmRunResult {
  PhaseBreakdown phases;
  double total_s = 0.0;

  loadbal::Assignment assignment;  ///< region owner during node connection
  std::vector<double> load_profile_s;        ///< per-proc node-connection busy
  std::vector<std::uint64_t> nodes_per_proc; ///< roadmap nodes (Fig 5c)
  double cv_nodes_before = 0.0;  ///< CV of roadmap nodes per proc, naive map
  double cv_nodes_after = 0.0;   ///< ... under the final assignment (Fig 5b)

  std::uint64_t edge_cut_after = 0;
  std::uint64_t remote_region_graph = 0;  ///< region-graph remote accesses
  std::uint64_t remote_roadmap = 0;       ///< roadmap remote accesses (Fig 7b)

  loadbal::WsResult ws;  ///< populated for work-stealing strategies
  /// Extra wall seconds lost to straggler windows (ws.faults has the full
  /// fault metrics for work-stealing strategies; bulk-synchronous
  /// strategies report their stretched phases here).
  double straggler_delay_s = 0.0;
};

/// Replay `workload` under `config`. Throws std::invalid_argument when
/// `config.procs` is 0 (checked in every build).
PrmRunResult simulate_prm_run(const Workload& workload,
                              const PrmRunConfig& config);

}  // namespace pmpl::core
