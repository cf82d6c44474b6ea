#include "planner/rrt_connect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/tree_utils.hpp"
#include "planner/samplers.hpp"

namespace pmpl::planner {

namespace {

/// A clamped extension whose endpoint coincides with its target (the
/// CONNECT loop's REACHED condition). Steering uses t = 1 whenever the
/// nearest node is within one step, so a reached target is hit exactly;
/// the tolerance only absorbs interpolation round-off.
constexpr double kReachedTol = 1e-9;

/// Extensions one greedy CONNECT may take toward its target.
constexpr std::size_t kMaxConnectSteps = 64;

}  // namespace

std::optional<std::vector<cspace::Config>> RrtConnect::plan(
    const cspace::Config& start, const cspace::Config& goal,
    std::uint64_t seed, const runtime::CancelToken* cancel) {
  tree_ = Roadmap{};
  stats_ = PlannerStats{};
  if (!env_->validity().valid(start, &stats_.cd) ||
      !env_->validity().valid(goal, &stats_.cd))
    return std::nullopt;

  const auto& space = env_->space();
  RrtParams bp;
  bp.step = params_.step;
  bp.resolution = params_.resolution;
  bp.max_nodes = params_.max_nodes;
  bp.max_iterations = params_.max_iterations;
  RrtBranch start_tree(*env_, tree_, start, 0, bp);
  RrtBranch goal_tree(*env_, tree_, goal, 1, bp);
  RrtBranch* grow_tree = &start_tree;
  RrtBranch* connect_tree = &goal_tree;

  Xoshiro256ss rng(seed);
  const auto sampler = [&](Xoshiro256ss& g) { return space.sample(g); };
  const std::size_t width =
      std::clamp<std::size_t>(params_.batch_width, 1, 32);
  std::vector<cspace::Config> targets;
  std::vector<graph::VertexId> added;

  for (std::size_t iter = 0; iter < params_.max_iterations &&
                             tree_.num_vertices() < params_.max_nodes;
       /* advanced per wave */) {
    if (runtime::stop_requested(cancel)) return std::nullopt;
    const std::size_t w =
        std::min(width, params_.max_iterations - iter);
    iter += w;
    sample_targets(sampler, rng, w, targets);
    stats_.samples_attempted += w;
    added.clear();
    grow_tree->extend_wave(targets, stats_, &added);
    if (added.empty()) {
      std::swap(grow_tree, connect_tree);
      continue;
    }

    // Best new node: the wave survivor closest to the other tree (ties
    // resolved by wave order — deterministic).
    graph::VertexId best_id = added.front();
    double best_d = std::numeric_limits<double>::infinity();
    for (const graph::VertexId id : added) {
      const auto nb = connect_tree->nearest(tree_.vertex(id).cfg, 1, stats_);
      if (!nb.empty() && nb.front().distance < best_d) {
        best_d = nb.front().distance;
        best_id = id;
      }
    }

    // Greedy CONNECT: extend the other tree toward the best new node until
    // it reaches the node, gets trapped, or hits the step cap. Each
    // extension starts from the previous one's endpoint (the new node is
    // the nearest), so progress toward the target is monotone.
    const cspace::Config qtarget = tree_.vertex(best_id).cfg;
    std::optional<graph::VertexId> reached;
    for (std::size_t c = 0; c < kMaxConnectSteps &&
                            tree_.num_vertices() < params_.max_nodes;
         ++c) {
      if (runtime::stop_requested(cancel)) return std::nullopt;
      const auto id = connect_tree->extend(qtarget, stats_);
      if (!id) break;  // trapped
      if (space.distance(tree_.vertex(*id).cfg, qtarget) <= kReachedTol) {
        reached = id;
        break;
      }
    }
    if (reached) {
      // Bridge the trees at the meeting point. The bridged forest is one
      // tree, so the start-goal path is its unique tree path.
      tree_.add_edge(best_id, *reached,
                     {space.distance(tree_.vertex(*reached).cfg, qtarget)});
      const auto path =
          graph::forest_path(tree_, start_tree.root(), goal_tree.root());
      if (!path) return std::nullopt;
      std::vector<cspace::Config> configs;
      configs.reserve(path->size());
      for (const graph::VertexId v : *path)
        configs.push_back(tree_.vertex(v).cfg);
      return configs;
    }
    std::swap(grow_tree, connect_tree);
  }
  return std::nullopt;
}

}  // namespace pmpl::planner
