#pragma once
/// \file rrt.hpp
/// Rapidly-exploring Random Tree branches (LaValle & Kuffner 2001).
///
/// `RrtBranch` is the regional building block of Algorithm 2 (uniform
/// radial subdivision): each region grows one branch, with sampling biased
/// toward the region's target direction; the parallel driver later connects
/// branches of adjacent regions (pruning any cycles). Single-query
/// planning uses `RrtConnect` (planner/rrt_connect.hpp), which grows two
/// branches.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "env/environment.hpp"
#include "planner/knn.hpp"
#include "planner/roadmap.hpp"
#include "planner/stats.hpp"
#include "runtime/cancel.hpp"
#include "util/rng.hpp"

namespace pmpl::cspace {
class EdgeBatchPlanner;
}

namespace pmpl::planner {

/// RRT tuning knobs.
struct RrtParams {
  double step = 5.0;        ///< max extension distance Δq (metric)
  double resolution = 1.0;  ///< edge validation step (metric)
  std::size_t max_nodes = 1000;
  std::size_t max_iterations = 8000;
};

/// One RRT tree with incremental nearest-neighbor search.
/// The tree is stored in an externally-owned Roadmap so regional branches
/// can later be merged/connected; vertex ids are the Roadmap's.
class RrtBranch {
 public:
  /// Creates the branch rooted at `root` (which must be valid — asserted by
  /// callers); the root vertex is added to `tree` tagged with `region`.
  RrtBranch(const env::Environment& e, Roadmap& tree,
            const cspace::Config& root, std::uint32_t region,
            const RrtParams& params);
  ~RrtBranch();

  /// One RRT iteration: steer from the nearest tree node toward `target`
  /// by at most `step`, validate, and add. Returns the new vertex id on
  /// success.
  std::optional<graph::VertexId> extend(const cspace::Config& target,
                                        PlannerStats& stats);

  /// Wavefront extension: process up to 32 `targets` as one batch —
  /// nearest-neighbor queries batched against the tree as it stood at
  /// entry, new configurations validated through one wide `valid_mask`
  /// call, connecting edges validated through a cross-edge window
  /// (EdgeBatchPlanner), survivors inserted strictly in target order.
  /// Returns the number of nodes added (also appended to `added` when
  /// non-null). A single-target wave is roadmap- and query-count-identical
  /// to `extend`; wider waves steer every target against the same frozen
  /// tree snapshot, which is the wavefront semantics (deterministic for a
  /// fixed width, but a different — equally valid — tree than width 1).
  std::size_t extend_wave(std::span<const cspace::Config> targets,
                          PlannerStats& stats,
                          std::vector<graph::VertexId>* added = nullptr);

  /// Grow until `max_nodes` nodes or `max_iterations` iterations, drawing
  /// growth targets from `sampler`. A fired `cancel` token stops between
  /// iterations (bounded overrun: one extend = one k-NN + one local plan).
  void grow(const std::function<cspace::Config(Xoshiro256ss&)>& sampler,
            Xoshiro256ss& rng, PlannerStats& stats,
            const runtime::CancelToken* cancel = nullptr);

  /// The k nearest tree nodes to `q` (canonical neighbor order) — exposed
  /// for inter-tree connection (RRT-Connect). The span aliases finder
  /// scratch: invalidated by the next query or insertion.
  std::span<const Neighbor> nearest(const cspace::Config& q, std::size_t k,
                                    PlannerStats& stats) {
    return finder_.nearest(q, k, &stats);
  }

  graph::VertexId root() const noexcept { return root_id_; }
  std::uint32_t region() const noexcept { return region_; }

 private:
  static constexpr std::size_t kMaxWave = 32;  ///< valid_mask verdict width

  const env::Environment* env_;
  Roadmap* tree_;
  RrtParams params_;
  std::uint32_t region_;
  graph::VertexId root_id_;
  std::size_t num_nodes_ = 1;  ///< the root plus every extension
  KdTreeKnn finder_;

  // Wavefront scratch, created on first extend_wave (classic extend/grow
  // users never pay for it).
  std::unique_ptr<cspace::EdgeBatchPlanner> ebp_;
  KnnBatch wave_knn_;
  std::vector<graph::VertexId> wave_near_;
  std::vector<cspace::Config> wave_cfg_;
};

}  // namespace pmpl::planner
