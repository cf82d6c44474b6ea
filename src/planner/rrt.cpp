#include "planner/rrt.hpp"

#include <algorithm>

#include "cspace/local_planner.hpp"

namespace pmpl::planner {

RrtBranch::RrtBranch(const env::Environment& e, Roadmap& tree,
                     const cspace::Config& root, std::uint32_t region,
                     const RrtParams& params)
    : env_(&e),
      tree_(&tree),
      params_(params),
      region_(region),
      root_id_(tree.add_vertex({root, region})),
      finder_(e.space()) {
  finder_.insert(root_id_, root);
}

RrtBranch::~RrtBranch() = default;

std::optional<graph::VertexId> RrtBranch::extend(const cspace::Config& target,
                                                 PlannerStats& stats) {
  ++stats.rrt_extends;
  const auto nearest = finder_.nearest(target, 1, &stats);
  if (nearest.empty()) return std::nullopt;
  const graph::VertexId near_id = nearest.front().id;
  const cspace::Config& qnear = tree_->vertex(near_id).cfg;

  const auto& space = env_->space();
  const double d = space.distance(qnear, target);
  if (d <= 1e-12) return std::nullopt;
  const double t = d <= params_.step ? 1.0 : params_.step / d;
  cspace::Config qnew = space.interpolate(qnear, target, t);

  // Validate the new configuration, then the connecting edge.
  if (!env_->validity().valid(qnew, &stats.cd)) return std::nullopt;
  const cspace::LocalPlanner lp(space, env_->validity(), params_.resolution);
  ++stats.lp_attempts;
  const auto r = lp.plan(qnear, qnew, &stats.cd);
  stats.lp_steps += r.steps_checked;
  if (!r.success) return std::nullopt;
  ++stats.lp_success;
  ++stats.rrt_extends_success;

  const graph::VertexId id = tree_->add_vertex({qnew, region_});
  tree_->add_edge(near_id, id, {r.length});
  ++num_nodes_;
  finder_.insert(id, tree_->vertex(id).cfg);
  return id;
}

std::size_t RrtBranch::extend_wave(std::span<const cspace::Config> targets,
                                   PlannerStats& stats,
                                   std::vector<graph::VertexId>* added) {
  if (targets.empty()) return 0;
  if (!ebp_)
    ebp_ = std::make_unique<cspace::EdgeBatchPlanner>(
        env_->space(), env_->validity(), params_.resolution, kMaxWave);
  const auto& space = env_->space();
  std::size_t n_added = 0;
  for (std::size_t base = 0; base < targets.size(); base += kMaxWave) {
    const std::size_t w = std::min(kMaxWave, targets.size() - base);

    // Nearest neighbors for the whole wave against the frozen tree.
    finder_.nearest_batch(targets.subspan(base, w), 1, wave_knn_, &stats);

    // Steer each target; collect the candidate (qnear, qnew) pairs.
    wave_near_.clear();
    wave_cfg_.clear();
    for (std::size_t i = 0; i < w; ++i) {
      ++stats.rrt_extends;
      const auto nb = wave_knn_.of(i);
      if (nb.empty()) continue;
      const cspace::Config& qnear = tree_->vertex(nb.front().id).cfg;
      const cspace::Config& target = targets[base + i];
      const double d = space.distance(qnear, target);
      if (d <= 1e-12) continue;
      const double t = d <= params_.step ? 1.0 : params_.step / d;
      wave_near_.push_back(nb.front().id);
      wave_cfg_.push_back(space.interpolate(qnear, target, t));
    }
    if (wave_cfg_.empty()) continue;

    // One wide validity pass over every steered configuration, then the
    // surviving edges through the cross-edge window. Commit strictly in
    // admission (= target) order so the tree is deterministic.
    const std::uint32_t mask =
        env_->validity().valid_mask(wave_cfg_, &stats.cd);
    for (std::size_t i = 0; i < wave_cfg_.size(); ++i) {
      if (!(mask & (1u << i))) continue;
      if (!ebp_->can_admit()) break;  // window >= kMaxWave: unreachable
      ebp_->admit(tree_->vertex(wave_near_[i]).cfg, wave_cfg_[i],
                  static_cast<std::uint64_t>(i));
    }
    while (ebp_->pending()) {
      const auto out = ebp_->next(&stats.cd);
      const std::size_t i = static_cast<std::size_t>(out.tag);
      ++stats.lp_attempts;
      stats.lp_steps += out.result.steps_checked;
      // EdgeBatchPlanner drops queries (speculation must not count); the
      // per-edge semantic count equals steps_checked for in-bounds edge
      // interiors — same reconstruction as the PRM connection phase.
      stats.cd.queries += out.result.steps_checked;
      if (!out.result.success) continue;
      ++stats.lp_success;
      ++stats.rrt_extends_success;
      const graph::VertexId id = tree_->add_vertex({wave_cfg_[i], region_});
      tree_->add_edge(wave_near_[i], id, {out.result.length});
      ++num_nodes_;
      finder_.insert(id, tree_->vertex(id).cfg);
      if (added != nullptr) added->push_back(id);
      ++n_added;
    }
  }
  return n_added;
}

void RrtBranch::grow(
    const std::function<cspace::Config(Xoshiro256ss&)>& sampler,
    Xoshiro256ss& rng, PlannerStats& stats,
    const runtime::CancelToken* cancel) {
  for (std::size_t iter = 0;
       iter < params_.max_iterations && num_nodes_ < params_.max_nodes;
       ++iter) {
    if (runtime::stop_requested(cancel)) return;
    ++stats.samples_attempted;
    extend(sampler(rng), stats);
  }
}

}  // namespace pmpl::planner
