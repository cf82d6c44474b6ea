#pragma once
/// \file parallel_build_rrt.hpp
/// Shared-memory parallel radial-subdivision RRT: Algorithm 2 + Algorithm 3
/// executed for real on host threads.
///
/// Each radial region grows its branch as one task under the shared anytime
/// region pipeline (core/anytime.hpp; per-region RNG streams keep the
/// forest identical to a sequential build); branches are then merged and
/// connected acyclically.

#include <cstdint>

#include "core/anytime.hpp"
#include "core/radial_regions.hpp"
#include "env/environment.hpp"
#include "planner/rrt.hpp"
#include "runtime/trace.hpp"

namespace pmpl::core {

/// Branch growth and connection, shared by parallel_build_rrt and
/// build_rrt_workload. Each branch grows with kRrtParams' step and
/// resolution, up to its share of the node budget and kRrtIterationFactor
/// growth targets per node, drawn in its cone widened by kRrtConeOverlap;
/// adjacent branches get up to kRrtBoundaryAttempts local plans per pair.
inline constexpr planner::RrtParams kRrtParams{};
inline constexpr std::size_t kRrtIterationFactor = 8;
inline constexpr double kRrtConeOverlap = 1.5;
inline constexpr std::size_t kRrtBoundaryAttempts = 8;

struct ParallelRrtConfig {
  std::size_t total_nodes = 1 << 13;
  std::uint32_t workers = 4;
  std::uint64_t seed = 1;
  AnytimeOptions anytime;  ///< deadline/cancel + checkpoint/resume
  /// Tracing sink; nullptr disables (see ParallelPrmConfig::tracer).
  /// Branch tasks record branch > grow spans; the connection phase records
  /// edge_connect spans on the "branch-connect" track. The forest is
  /// bit-identical with tracing on/off.
  runtime::Tracer* tracer = nullptr;
};

/// Grow all regional branches of `regions` from `root` with
/// `config.workers` threads and connect adjacent branches. The result's
/// roadmap is a forest.
///
/// Anytime semantics match parallel_build_prm: a fired cancel token yields
/// a well-formed partial forest of the branches that completed
/// (all-or-nothing per branch), an optional checkpoint of that subset,
/// and a report; a resumed run finishes bit-identically to an
/// uninterrupted one.
RegionBuildResult parallel_build_rrt(const env::Environment& e,
                                     const RadialRegions& regions,
                                     const cspace::Config& root,
                                     const ParallelRrtConfig& config);

/// Algorithm 2's region task, shared by `parallel_build_rrt` and
/// `build_rrt_workload`: grow region r's branch from `root` toward its
/// cone, into a branch-local roadmap whose vertex 0 is the root. Reads
/// total_nodes, seed, anytime.cancel and tracer from `config`; `e` and
/// `regions` must outlive the task.
RegionTask rrt_region_task(const env::Environment& e,
                           const RadialRegions& regions,
                           const cspace::Config& root,
                           const ParallelRrtConfig& config);

}  // namespace pmpl::core
