#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the DES cluster model.
///
/// A FaultPlan is pure data: crash times, straggler windows, lossy/slow
/// links and token-loss windows, plus a dedicated seed. A FaultInjector
/// evaluates the plan against concrete (rank, time) queries; all randomness
/// (message-drop rolls) comes from its own xoshiro stream, so a faulty run
/// is a pure function of (workload, config, plan) and — critically — an
/// *empty* plan consumes no randomness and schedules no events, leaving the
/// fault-free engine behavior bit-for-bit identical to a build without the
/// subsystem.
///
/// FaultMetrics collects what the resilience benchmarks report: recovery
/// latency, re-executed service seconds, retransmissions, regenerated
/// termination tokens, and straggler delay.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pmpl::runtime {

/// Wildcard rank for link faults ("any sender" / "any receiver").
inline constexpr std::uint32_t kAnyRank = 0xffffffffu;

/// `rank` halts permanently at `at_s` (fail-stop: queued and in-progress
/// work is lost from the rank; completed work is durable).
struct CrashFault {
  std::uint32_t rank = 0;
  double at_s = 0.0;
  bool operator==(const CrashFault&) const = default;
};

/// `rank` executes `slowdown`x slower inside [from_s, until_s). Windows for
/// one rank must not overlap.
struct StragglerFault {
  std::uint32_t rank = 0;
  double slowdown = 1.0;
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();
  bool operator==(const StragglerFault&) const = default;
};

/// Messages from `from` to `to` (wildcards allowed) inside the window are
/// dropped with `drop_prob`; survivors pay `extra_delay_s`.
struct LinkFault {
  std::uint32_t from = kAnyRank;
  std::uint32_t to = kAnyRank;
  double drop_prob = 0.0;
  double extra_delay_s = 0.0;
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();
  bool operator==(const LinkFault&) const = default;
};

/// Termination-detection tokens forwarded inside the window are lost with
/// `drop_prob` (on top of any matching link fault).
struct TokenFault {
  double drop_prob = 0.0;
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();
  bool operator==(const TokenFault&) const = default;
};

/// `rank` is frozen (SIGSTOP) inside [from_s, until_s) and resumes after —
/// the zombie scenario: a supervisor may have started a replacement
/// incarnation in the meantime, and epoch fencing must neutralize the
/// resumed original. The DES model ignores pauses (it has no supervisor);
/// only the multi-process launcher executes them.
struct PauseFault {
  std::uint32_t rank = 0;
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();
  bool operator==(const PauseFault&) const = default;
};

/// Network partition: inside [from_s, until_s), messages crossing the cut
/// between `ranks` (side A) and everyone else (side B) are dropped.
/// Evaluated receiver-side like link faults, deterministically (no roll:
/// the cut is absolute while the window is open).
struct PartitionFault {
  std::vector<std::uint32_t> ranks;  ///< side A of the cut
  double from_s = 0.0;
  double until_s = std::numeric_limits<double>::infinity();
  bool operator==(const PartitionFault&) const = default;

  bool separates(std::uint32_t from, std::uint32_t to) const noexcept {
    bool in_a = false, in_b = false;
    for (std::uint32_t r : ranks) {
      if (r == from) in_a = true;
      if (r == to) in_b = true;
    }
    return in_a != in_b;
  }
};

/// A complete, seeded failure scenario.
struct FaultPlan {
  std::vector<CrashFault> crashes;
  std::vector<StragglerFault> stragglers;
  std::vector<LinkFault> links;
  std::vector<TokenFault> tokens;
  std::vector<PauseFault> pauses;
  std::vector<PartitionFault> partitions;
  std::uint64_t seed = 0xfa17ed5eedULL;  ///< dedicated drop-roll stream
  bool operator==(const FaultPlan&) const = default;

  bool empty() const noexcept {
    return crashes.empty() && stragglers.empty() && links.empty() &&
           tokens.empty() && pauses.empty() && partitions.empty();
  }

  // Fluent builders (return *this so plans read as one expression).
  FaultPlan& crash(std::uint32_t rank, double at_s) {
    crashes.push_back({rank, at_s});
    return *this;
  }
  FaultPlan& straggler(std::uint32_t rank, double slowdown, double from_s,
                       double until_s) {
    stragglers.push_back({rank, slowdown, from_s, until_s});
    return *this;
  }
  FaultPlan& lossy_links(double drop_prob, double extra_delay_s = 0.0,
                         double from_s = 0.0,
                         double until_s =
                             std::numeric_limits<double>::infinity()) {
    links.push_back({kAnyRank, kAnyRank, drop_prob, extra_delay_s, from_s,
                     until_s});
    return *this;
  }
  FaultPlan& lose_tokens(double drop_prob, double from_s = 0.0,
                         double until_s =
                             std::numeric_limits<double>::infinity()) {
    tokens.push_back({drop_prob, from_s, until_s});
    return *this;
  }
  FaultPlan& pause(std::uint32_t rank, double from_s, double until_s) {
    pauses.push_back({rank, from_s, until_s});
    return *this;
  }
  FaultPlan& partition(std::vector<std::uint32_t> side_a, double from_s,
                       double until_s) {
    partitions.push_back({std::move(side_a), from_s, until_s});
    return *this;
  }
};

/// Everything the resilience harness measures about a faulty run.
struct FaultMetrics {
  std::uint32_t crashes = 0;            ///< planned crashes that fired
  std::uint32_t fenced = 0;             ///< live ranks killed by false detection
  std::uint64_t messages_dropped = 0;   ///< basic messages lost to links
  std::uint64_t messages_delayed = 0;   ///< basic messages paying extra delay
  std::uint64_t tokens_lost = 0;        ///< tokens dropped or sent to the dead
  std::uint64_t tokens_regenerated = 0; ///< leader-side token timeouts
  std::uint64_t heartbeat_probes = 0;
  std::uint64_t steal_retries = 0;      ///< request timeouts retried as denies
  std::uint64_t grant_retransmits = 0;  ///< unacked grants re-sent
  std::uint64_t regions_recovered = 0;  ///< re-homed off dead ranks
  std::uint64_t regions_reexecuted = 0; ///< in-progress at a crash, run again
  double reexecuted_service_s = 0.0;    ///< service re-spent on those regions
  double straggler_delay_s = 0.0;       ///< extra busy seconds from slowdowns
  double recovery_latency_max_s = 0.0;  ///< worst crash -> regions re-homed
};

class MetricsRegistry;

/// Publish every FaultMetrics field into `reg` as "<prefix><field>"
/// (integer fields as counters, seconds as gauges). The single place the
/// field list is spelled for export; an all-zero struct still registers
/// its instruments so snapshots have a stable shape.
void publish(MetricsRegistry& reg, const FaultMetrics& m,
             const std::string& prefix);

/// Evaluates a FaultPlan. Const queries (crash times, straggler stretch) do
/// not touch the RNG; message-fate queries do, in call order, so the DES
/// event order fully determines the roll sequence.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(derive_seed(plan.seed, 0x0fau)),
        active_(!plan.empty()) {}

  /// False for an empty plan: the engine must schedule no fault machinery.
  bool active() const noexcept { return active_; }

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Fate of a basic message sent from->to at time `t`.
  struct MessageFate {
    bool dropped = false;
    double extra_delay_s = 0.0;
  };
  MessageFate on_message(std::uint32_t from, std::uint32_t to, double t);

  /// Fate of a termination token forwarded at `t`: token faults roll
  /// first, then any matching link fault (drop or extra delay).
  MessageFate on_token(std::uint32_t from, std::uint32_t to, double t);

  /// Wall duration of `service_s` seconds of work started by `rank` at
  /// `start_s`, stretched through any straggler windows it crosses.
  /// Exactly `service_s` when the rank has no windows (no FP drift).
  double stretched_service(std::uint32_t rank, double start_s,
                           double service_s) const;

 private:
  FaultPlan plan_;
  Xoshiro256ss rng_;
  bool active_ = false;
};

}  // namespace pmpl::runtime
