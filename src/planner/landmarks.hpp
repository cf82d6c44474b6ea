#pragma once
/// \file landmarks.hpp
/// ALT landmark table over a roadmap (Goldberg & Harrelson, SODA 2005).
///
/// For a landmark l and vertices v, a the triangle inequality gives
/// d(v, a) >= |d_l(v) - d_l(a)|, where d_l is the graph distance to l. A
/// table of d_l for a few landmarks therefore turns into an admissible,
/// consistent A* heuristic for every query against the same roadmap
/// (planner/query.hpp). A roadmap served from a snapshot is read far more
/// often than it is written, so the table is built once per snapshot epoch
/// and shared read-only by every query of that epoch.
///
/// Layout and selection:
///  - connected components are labelled densely, in order of their
///    lowest vertex id;
///  - every component gets its own L = kLandmarks landmarks, chosen by
///    farthest-point selection over graph distance: the component's
///    lowest-id vertex first, then repeatedly the vertex farthest (ties:
///    lowest id) from all landmarks chosen so far — one Dijkstra per
///    landmark, restricted to the component. Islands therefore never fall
///    back to the metric bound alone;
///  - `row(v)` holds v's graph distance to each of its component's
///    landmarks, stored contiguously as dist[v * L + l]. A component with
///    fewer than L vertices repeats its first column.
///
/// Deterministic: the table depends only on the roadmap.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "planner/roadmap.hpp"

namespace pmpl::planner {

class LandmarkTable {
 public:
  /// Landmarks per component (L): the row width. On a 5,689-vertex maze
  /// roadmap, over 6,947 seeded searches attached to 8 neighbours at each
  /// end, eight cut A* from 1,689 to 359 expansions and from 270 to 76 us
  /// per search (one x86-64 core) for ~5 ms of build per epoch. Sixteen
  /// reach 274 expansions and 68 us but build in ~15 ms and take twice
  /// the bytes.
  static constexpr std::size_t kLandmarks = 8;

  /// Build over `g`: one Dijkstra per landmark over a heap bounded by |V|,
  /// with all build scratch reused across them.
  explicit LandmarkTable(const Roadmap& g);

  std::size_t num_vertices() const noexcept { return component_.size(); }
  std::size_t num_components() const noexcept { return num_components_; }

  /// Dense component label of `v`.
  std::uint32_t component(graph::VertexId v) const noexcept {
    return component_[v];
  }
  /// Graph distances from `v` to its component's kLandmarks landmarks.
  const double* row(graph::VertexId v) const noexcept {
    return dist_.data() + static_cast<std::size_t>(v) * kLandmarks;
  }

  /// Resident bytes of the table (distances and labels).
  std::size_t bytes() const noexcept;
  /// Wall time the constructor took.
  double build_seconds() const noexcept { return build_s_; }

 private:
  std::size_t num_components_ = 0;
  std::vector<double> dist_;              ///< dist_[v * kLandmarks + l]
  std::vector<std::uint32_t> component_;  ///< per vertex
  double build_s_ = 0.0;
};

}  // namespace pmpl::planner
