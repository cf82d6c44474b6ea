#pragma once
/// \file rrt_connect.hpp
/// Bidirectional RRT-Connect (Kuffner & LaValle 2000) with wavefront-style
/// batched extension.
///
/// Two trees grow toward each other: each round samples a wave of growth
/// targets, extends the active tree through `RrtBranch::extend_wave` (wide
/// validity kernels over the whole wave), then greedily CONNECTs the other
/// tree toward the best new node — repeated clamped extensions until it
/// reaches the node or gets trapped. On a successful connect the trees are
/// bridged and the start-goal path extracted. `batch_width = 1` is the
/// classic single-sample algorithm; wider waves keep the SIMD validity
/// lanes full. Deterministic for a fixed (seed, width).
///
/// Both trees live in ONE Roadmap — the start tree tagged region 0, the
/// goal tree region 1 — so the bridged graph is directly queryable and the
/// regional machinery (merge, hashing, IO) applies unchanged.

#include <optional>
#include <vector>

#include "env/environment.hpp"
#include "planner/roadmap.hpp"
#include "planner/rrt.hpp"
#include "planner/stats.hpp"
#include "runtime/cancel.hpp"

namespace pmpl::planner {

/// RRT-Connect tuning knobs.
struct RrtConnectParams {
  double step = 5.0;        ///< max extension distance Δq (metric)
  double resolution = 1.0;  ///< edge validation step (metric)
  std::size_t max_nodes = 2000;       ///< total across both trees
  std::size_t max_iterations = 8000;  ///< growth targets drawn overall
  /// Wavefront width: growth targets extended per batch (1..32). Width 1
  /// reproduces the classic algorithm exactly; wider waves batch k-NN,
  /// config validity (one wide valid_mask) and edge validation (cross-edge
  /// window) per round.
  std::size_t batch_width = 1;
};

/// Bidirectional planner: grow from `start` and `goal` simultaneously,
/// stop when the trees connect.
class RrtConnect {
 public:
  RrtConnect(const env::Environment& e, RrtConnectParams params = {})
      : env_(&e), params_(params) {}

  /// Plan start -> goal. Returns the configuration path on success. A
  /// fired `cancel` token stops between waves; the grown forest stays
  /// available through tree() for salvage.
  std::optional<std::vector<cspace::Config>> plan(
      const cspace::Config& start, const cspace::Config& goal,
      std::uint64_t seed, const runtime::CancelToken* cancel = nullptr);

  const Roadmap& tree() const noexcept { return tree_; }
  const PlannerStats& stats() const noexcept { return stats_; }

 private:
  const env::Environment* env_;
  RrtConnectParams params_;
  Roadmap tree_;
  PlannerStats stats_;
};

}  // namespace pmpl::planner
