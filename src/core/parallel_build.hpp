#pragma once
/// \file parallel_build.hpp
/// Shared-memory parallel uniform-subdivision PRM: the same Algorithm 1 +
/// Algorithm 3 pipeline executed for real on host threads (not simulated).
///
/// Regions are independent tasks (sample + connect-within on region-local
/// storage) executed by the work-stealing scheduler through the shared
/// anytime region pipeline (core/anytime.hpp); the regional roadmaps are
/// then merged and adjacent regions connected. Per-region RNG streams make
/// the roadmap independent of the worker count and of stealing.

#include <cstdint>

#include "core/anytime.hpp"
#include "core/region_grid.hpp"
#include "env/environment.hpp"
#include "planner/prm.hpp"
#include "runtime/trace.hpp"

namespace pmpl::core {

/// Local plans per region pair in the connection phase. The threaded
/// build tries up to 16 candidates per pair; the measured workload behind
/// the figures (build_prm_workload) tries 4, so a figure's connection
/// phase is measured on less work than the threaded build does.
inline constexpr std::size_t kPrmBuildBoundaryAttempts = 16;
inline constexpr std::size_t kPrmWorkloadBoundaryAttempts = 4;

struct ParallelPrmConfig {
  std::size_t total_attempts = 1 << 14;
  planner::PrmParams prm;
  std::uint32_t workers = 4;
  std::uint64_t seed = 1;
  AnytimeOptions anytime;  ///< deadline/cancel + checkpoint/resume
  /// Tracing sink; nullptr disables. When set, scheduler workers record
  /// task/steal/park events and each region task nests region > sample /
  /// connect spans on its worker's wall-time track; the serial
  /// region-connection phase records edge_connect spans on the caller's
  /// "region-connect" track. The roadmap is bit-identical with tracing on
  /// or off.
  runtime::Tracer* tracer = nullptr;
};

/// Build the roadmap for `e` over `grid` with `config.workers` threads.
///
/// Anytime semantics (config.anytime): a fired cancel token stops the
/// build cooperatively and the function still returns a well-formed
/// partial result — the merge keeps exactly the regions that completed
/// (all-or-nothing; a region interrupted mid-build is discarded), the
/// report says how far the build got, and, when a checkpoint path is set,
/// the completed subset is snapshotted so a later resumed run finishes
/// the build bit-identically to an uninterrupted one.
RegionBuildResult parallel_build_prm(const env::Environment& e,
                                     const RegionGrid& grid,
                                     const ParallelPrmConfig& config);

/// Algorithm 1's region task, shared by `parallel_build_prm` and
/// `build_prm_workload`: draw region r's share of `total_attempts` in its
/// sampling box with `prm.sampler`, then connect the samples within the
/// region (connect_samples). Reads total_attempts, prm, seed,
/// anytime.cancel and tracer from `config`; `e` and `grid` must outlive
/// the task.
RegionTask prm_region_task(const env::Environment& e, const RegionGrid& grid,
                           const ParallelPrmConfig& config);

}  // namespace pmpl::core
