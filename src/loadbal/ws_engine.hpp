#pragma once
/// \file ws_engine.hpp
/// Event-driven work-stealing simulation (Algorithm 3 of the paper).
///
/// Regions are tasks with measured service times; each location executes
/// its queue front-to-back, and an idle location issues steal requests per
/// the victim-selection policy. A victim grants regions from the *back* of
/// its queue (ownership transfer, paper §II-A/III-A); transfers pay latency
/// plus payload-bytes/bandwidth. The phase ends when token-ring
/// termination detection confirms global quiescence, so detection cost is
/// part of the measured schedule.
///
/// simulate_work_stealing() runs p copies of the one protocol core
/// (WsRank, loadbal/ws_rank.hpp) in virtual time — the same core the
/// forked socket cluster runs in wall time. Its own share is what only a
/// god view can do: execute the FaultPlan's crashes and straggler
/// windows, and tally completion times, final owners and re-executions.
/// The failure machinery (timeouts, retransmits, heartbeat fencing,
/// ring-successor recovery from a replicated directory) runs only under a
/// non-empty FaultPlan; an empty plan schedules none of it.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "loadbal/metrics.hpp"
#include "loadbal/steal_policy.hpp"
#include "runtime/fault.hpp"
#include "runtime/topology.hpp"
#include "runtime/trace.hpp"

namespace pmpl::runtime {
class MetricsRegistry;
}

namespace pmpl::loadbal {

/// One schedulable task (a region's planning work for one phase).
struct WsItem {
  double service_s = 0.0;   ///< measured execution time
  std::uint64_t bytes = 0;  ///< migration payload (region + its roadmap)
};

/// Engine configuration.
struct WsConfig {
  StealPolicyKind policy = StealPolicyKind::kHybrid;
  std::uint32_t rand_k = 8;  ///< victims per RAND-K attempt (paper: 8)
  runtime::ClusterSpec cluster = runtime::ClusterSpec::hopper();
  std::uint64_t seed = 1;
  /// A thief stops probing after this many consecutive fully-denied
  /// escalation rounds (it still serves requests and the token). Real
  /// schedulers bound probing to avoid congestion; this is also what makes
  /// "few processors are able to find work once they have exhausted their
  /// local regions" (paper §IV-C2) appear at scale.
  std::uint32_t give_up_after = 3;
  /// Regions granted per steal, taken from the back of the victim's queue
  /// (ownership transfer). Capped at half the victim's queue. Small grants
  /// are what make work stealing "random and non-exact" (paper §IV-C2)
  /// compared with a global repartition.
  std::uint32_t steal_max_items = 1;
  /// Failure scenario. Empty (the default) runs no failure machinery: no
  /// timeouts, heartbeats or fault-RNG draws are scheduled at all. The
  /// protocol timers derive from `cluster` and this plan
  /// (WsTimers::virtual_time).
  runtime::FaultPlan faults;
  /// Tracing sink; nullptr (the default) disables tracing. When set, the
  /// engine creates one *virtual-time* track per rank named
  /// "<trace_prefix>rank <r>" and records region spans, steal
  /// request/deny/grant and migration instants, heartbeat-miss / fencing /
  /// death markers, token hops, and crash/straggle/drop fault instants,
  /// all stamped in simulated seconds. Tracing draws no randomness and
  /// schedules no DES events, so a traced replay is event-for-event
  /// identical to an untraced one.
  runtime::Tracer* tracer = nullptr;
  std::string trace_prefix;        ///< track-name prefix (strategy label…)
  std::size_t trace_capacity = 0;  ///< per-rank ring size; 0 = tracer default
};

/// Simulation outcome.
struct WsResult {
  double makespan_s = 0.0;  ///< time of confirmed global termination
  std::vector<double> busy_s;              ///< per location
  std::vector<std::uint64_t> local_tasks;  ///< executed, originally owned
  std::vector<std::uint64_t> stolen_tasks; ///< executed, stolen (Fig 9)
  Assignment final_owner;                  ///< executor of each item
  std::uint64_t steal_requests = 0;
  std::uint64_t steal_grants = 0;
  std::uint64_t steal_denies = 0;
  std::uint64_t regions_migrated = 0;
  std::uint64_t token_rounds = 0;
  std::uint64_t events = 0;
  /// Completion time of each item (-1 when never executed, which can only
  /// happen when every location crashed before finishing the work).
  std::vector<double> completion_s;
  /// True when token-ring detection confirmed global quiescence; false
  /// when the calendar drained without it (e.g. all locations crashed).
  bool terminated = false;
  /// True when the DES stopped at its runaway-event backstop; makespan and
  /// counters from such a run are meaningless and callers must fail loudly.
  bool hit_event_limit = false;
  runtime::FaultMetrics faults;  ///< all-zero for an empty FaultPlan

  /// Fraction of executed tasks that were stolen.
  double stolen_fraction() const noexcept {
    std::uint64_t s = 0, t = 0;
    for (std::size_t i = 0; i < stolen_tasks.size(); ++i) {
      s += stolen_tasks[i];
      t += stolen_tasks[i] + local_tasks[i];
    }
    return t ? static_cast<double>(s) / static_cast<double>(t) : 0.0;
  }
};

/// Simulate work stealing of `items` initially distributed by `initial`
/// (item -> location) across `p` locations. Deterministic per config seed.
/// Throws std::invalid_argument when `p` is 0, `initial` is not one rank
/// below `p` per item, or a service time is negative or not finite.
WsResult simulate_work_stealing(std::span<const WsItem> items,
                                std::span<const std::uint32_t> initial,
                                std::uint32_t p, const WsConfig& config);

/// Publish a result's counters into `reg` as "<prefix>…" instruments
/// (steal/migration/token counters, makespan and busy-time gauges, a
/// per-rank busy-seconds histogram) plus the fault metrics under
/// "<prefix>fault_". Lives here rather than in loadbal/metrics.hpp because
/// this header already depends on that one.
void publish(runtime::MetricsRegistry& reg, const WsResult& result,
             const std::string& prefix);

}  // namespace pmpl::loadbal
