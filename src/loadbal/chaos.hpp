#pragma once
/// \file chaos.hpp
/// Seeded chaos-schedule generator and soak driver (DESIGN.md §5i).
///
/// A chaos schedule is a randomized-but-reproducible FaultPlan — kills,
/// restarts (via the supervisor), pause windows, lossy links, delays,
/// token loss, partition cuts — drawn from a single seed. The soak driver
/// runs N schedules through the forked-process harness and holds every
/// run to the full invariant suite:
///
///  1. completeness — the union roadmap hash equals the fault-free DES
///     hash for the same workload (every region completed, correct
///     payloads, regardless of who executed what when);
///  2. no duplicated execution — across the final incarnations' lineage
///     `executed` lists, no region id appears twice;
///  3. termination — every surviving rank saw (or declared) the
///     termination wave;
///  4. no leaks — the soak leaves behind no file descriptors in the
///     parent, no /tmp/pmpl_ws_* directories, and no harness files.
///
/// Determinism caveat: the *plan* is a pure function of the seed; the
/// run's interleaving is real concurrency. The invariants are chosen to
/// hold under every interleaving, which is the point of the soak.

#include <cstdint>
#include <string>
#include <vector>

#include "loadbal/ws_cluster.hpp"
#include "runtime/fault.hpp"

namespace pmpl::loadbal {

/// Fault instants are drawn inside [0, kChaosHorizonS) simulated seconds
/// — roughly the active makespan of ChaosConfig's default workload.
inline constexpr double kChaosHorizonS = 0.12;

/// Kills drawn per schedule, and the most any one rank takes.
inline constexpr std::uint32_t kChaosMaxKills = 3;
inline constexpr std::uint32_t kChaosMaxKillsPerRank = 2;

/// The supervisor policy every schedule runs under.
inline constexpr RestartPolicy kChaosRestart{.enabled = true,
                                             .max_restarts = 3};

// A rank's kills stay below its restart budget, so a schedule never
// legitimately leaves a rank down (a different scenario than resurrection).
static_assert(kChaosMaxKillsPerRank < kChaosRestart.max_restarts);

struct ChaosConfig {
  std::uint64_t seed = 0xc4a05ULL;
  std::uint32_t schedules = 20;  ///< soak width

  std::uint32_t ranks = 4;
  std::uint32_t regions = 48;
  double time_scale = 1.0;  ///< wall seconds per simulated service second

  double cluster_timeout_s = 30.0;  ///< parent watchdog per schedule
};

/// Outcome of one schedule, with the plan that produced it (so a failure
/// reproduces from the report alone).
struct ChaosScheduleResult {
  std::uint32_t index = 0;
  std::uint64_t schedule_seed = 0;
  runtime::FaultPlan plan;

  bool ok = false;
  std::string error;  ///< first violated invariant when !ok

  bool harness_ok = false;
  std::string harness_error;
  bool terminated = false;
  bool all_done = false;
  bool hash_match = false;
  std::uint64_t roadmap = 0;
  std::uint64_t expected_roadmap = 0;  ///< fault-free DES hash
  std::uint64_t duplicates = 0;        ///< extra executions of any region
  std::uint32_t restarts_total = 0;
  std::uint64_t zombies_fenced = 0;
  std::uint64_t stale_frames_rejected = 0;
};

struct ChaosSoakResult {
  bool ok = false;
  std::uint32_t passed = 0;
  std::uint32_t failed = 0;
  bool no_leaks = false;
  std::size_t fds_before = 0, fds_after = 0;  ///< parent /proc/self/fd
  std::size_t tmp_before = 0, tmp_after = 0;  ///< /tmp/pmpl_ws_* entries
  std::vector<ChaosScheduleResult> schedules;
};

/// The schedule for `schedule_seed`: a pure function of the seed, no I/O.
runtime::FaultPlan make_chaos_plan(const ChaosConfig& config,
                                   std::uint64_t schedule_seed);

/// Run one schedule end to end (fault-free DES for the expected hash,
/// then the forked cluster under the plan) and evaluate the invariants.
ChaosScheduleResult run_chaos_schedule(const ChaosConfig& config,
                                       std::uint32_t index);

/// Run config.schedules schedules and the leak checks.
ChaosSoakResult run_chaos_soak(const ChaosConfig& config);

/// Per-schedule invariant report as JSON (the CI artifact). Returns false
/// on I/O failure.
bool write_chaos_report(const ChaosSoakResult& soak, const ChaosConfig& cfg,
                        const std::string& path);

}  // namespace pmpl::loadbal
