#pragma once
/// \file profile.hpp
/// Measured per-region and per-region-edge work profiles.
///
/// A *workload* is the result of actually executing the parallel planner's
/// computation once with deterministic per-region seeds: the roadmap/tree
/// it built plus, for every region and region-graph edge, the operation
/// counts the planner performed. The regions run through the same region
/// task and pipeline as the threaded builders (core/anytime.hpp), so the
/// measured work is the work they do. Replaying a workload under a
/// strategy and processor count (prm_driver / rrt_driver) never re-runs
/// the planner — it schedules these measured costs.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/anytime.hpp"
#include "geometry/vec.hpp"
#include "loadbal/metrics.hpp"
#include "planner/roadmap.hpp"
#include "planner/stats.hpp"
#include "runtime/topology.hpp"
#include "runtime/work_units.hpp"

namespace pmpl::core {

/// Convert planner op counts to the runtime's schedulable work counts.
inline runtime::WorkCounts to_work_counts(const planner::PlannerStats& s) {
  return {s.cd.queries,  s.cd.narrow_tests, s.cd.bvh_nodes,
          s.knn_candidates, s.rrt_extends,  s.cd.ray_casts};
}

/// Measured cost of one region.
struct RegionProfile {
  double sampling_s = 0.0;  ///< node generation (PRM) — 0 for RRT
  double build_s = 0.0;     ///< node connection (PRM) / tree growth (RRT)
  runtime::WorkCounts sampling_ops;
  runtime::WorkCounts build_ops;
  std::uint32_t samples = 0;   ///< roadmap nodes generated in this region
  std::uint64_t bytes = 0;     ///< migration payload (region + roadmap data)
  geo::Vec3 centroid;

  double service_s() const noexcept { return sampling_s + build_s; }
};

/// Measured cost of connecting one pair of adjacent regions.
struct EdgeProfile {
  std::uint32_t a = 0, b = 0;     ///< region ids (a < b)
  double service_s = 0.0;         ///< compute cost of the attempts
  std::uint32_t vertex_reads = 0; ///< neighbor-side vertices fetched
  std::uint64_t bytes_touched = 0;///< payload of those fetches
  std::uint32_t edges_added = 0;  ///< successful inter-region connections
};

/// A fully measured parallel-planning computation.
struct Workload {
  std::vector<RegionProfile> regions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> region_edges;
  std::vector<EdgeProfile> edge_profiles;  ///< parallel to region_edges
  planner::Roadmap roadmap;
  std::vector<std::vector<graph::VertexId>> region_vertices;
  geo::Aabb bounds;  ///< centroid bounds (partitioner input)

  /// Anytime measurement progress: `regions_measured` regions carry real
  /// profiles. With a fired cancel token `measurement_cancelled` is set
  /// and the other regions' profiles are zero apart from their centroid.
  /// Regions are measured on threads, so the measured ones are a subset of
  /// the regions, not a prefix. A cancelled workload is a valid partial
  /// measurement (edge_profiles may be a prefix of region_edges) but must
  /// not be replayed as if complete.
  std::size_t regions_measured = 0;
  bool measurement_cancelled = false;

  double total_sampling_s() const noexcept {
    double t = 0.0;
    for (const auto& r : regions) t += r.sampling_s;
    return t;
  }
  double total_build_s() const noexcept {
    double t = 0.0;
    for (const auto& r : regions) t += r.build_s;
    return t;
  }
  double total_edge_s() const noexcept {
    double t = 0.0;
    for (const auto& e : edge_profiles) t += e.service_s;
    return t;
  }

  std::vector<double> build_times() const {
    std::vector<double> t;
    t.reserve(regions.size());
    for (const auto& r : regions) t.push_back(r.build_s);
    return t;
  }
  std::vector<geo::Vec3> centroids() const {
    std::vector<geo::Vec3> c;
    c.reserve(regions.size());
    for (const auto& r : regions) c.push_back(r.centroid);
    return c;
  }
  std::vector<std::uint64_t> region_bytes() const {
    std::vector<std::uint64_t> b;
    b.reserve(regions.size());
    for (const auto& r : regions) b.push_back(r.bytes);
    return b;
  }
  std::vector<std::uint32_t> sample_counts() const {
    std::vector<std::uint32_t> s;
    s.reserve(regions.size());
    for (const auto& r : regions) s.push_back(r.samples);
    return s;
  }
};

/// What differs between measuring a PRM and an RRT workload: how adjacent
/// regions are connected and how a region's migration payload is priced.
struct WorkloadMeasure {
  RegionConnect connect;  ///< how each region-graph edge is connected
  /// Payload bytes per vertex beyond its config, and per end of an
  /// intra-region edge (on top of a fixed region descriptor).
  std::uint64_t vertex_bytes = 0;
  std::uint64_t edge_end_bytes = 0;
  /// Cooperative stop: see Workload::regions_measured.
  const runtime::CancelToken* cancel = nullptr;
};

/// Measure `w`, whose regions (with their centroids), region_edges and
/// bounds the caller has set. Runs `task` for every region through
/// build_regions_anytime with one worker per hardware thread, then
/// connects the pairs of `w.region_edges` through connect_regions, one
/// EdgeProfile per pair. Fills everything else in `w`.
void measure_workload(const env::Environment& e, const RegionTask& task,
                      const WorkloadMeasure& m, Workload& w);

/// The replayed region-connection phase: each region-graph edge is
/// executed by the owner of its first endpoint; edges whose endpoints live
/// on different locations pay remote-access costs (region-graph lookup +
/// roadmap vertex fetches). Ends with a barrier.
struct RegionConnectionReplay {
  double time_s = 0.0;
  std::uint64_t remote_region_graph = 0;
  std::uint64_t remote_roadmap = 0;
};
RegionConnectionReplay replay_region_connection(
    const Workload& w, const loadbal::Assignment& owner, std::uint32_t procs,
    const runtime::ClusterSpec& cluster);

/// Roadmap nodes each of `procs` processors holds under `owner`.
std::vector<std::uint64_t> nodes_per_processor(
    const Workload& w, const loadbal::Assignment& owner, std::uint32_t procs);

/// Coefficient of variation of per-processor counts.
double cv_of_counts(const std::vector<std::uint64_t>& counts);

}  // namespace pmpl::core
