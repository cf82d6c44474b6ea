#include "model/model_env.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "loadbal/metrics.hpp"
#include "loadbal/partition.hpp"
#include "util/stats.hpp"

namespace pmpl::model {

ModelEnvironment::ModelEnvironment(double blocked_fraction,
                                   std::uint32_t grid_side)
    : blocked_(blocked_fraction), side_(grid_side) {
  assert(grid_side > 0);
  assert(blocked_fraction >= 0.0 && blocked_fraction < 1.0);

  const double obstacle_side = std::sqrt(blocked_fraction);
  const double lo = 0.5 * (1.0 - obstacle_side);
  const double hi = lo + obstacle_side;
  const geo::Aabb obstacle{{lo, lo, 0.0}, {hi, hi, 1.0}};

  const double cell = 1.0 / side_;
  vfree_.resize(static_cast<std::size_t>(side_) * side_);
  // x-major ordering (column-contiguous): id = ix * side + iy, matching
  // RegionGrid's ordering with nz = 1.
  for (std::uint32_t ix = 0; ix < side_; ++ix) {
    for (std::uint32_t iy = 0; iy < side_; ++iy) {
      const geo::Aabb box{{ix * cell, iy * cell, 0.0},
                          {(ix + 1) * cell, (iy + 1) * cell, 1.0}};
      const double blocked_area = box.overlap_volume(obstacle);  // z-depth 1
      vfree_[ix * side_ + iy] = box.volume() - blocked_area;
    }
  }
}

std::vector<double> ModelEnvironment::naive_load(std::uint32_t procs) const {
  const auto assignment = loadbal::partition_block(vfree_.size(), procs);
  return loadbal::per_part_load(vfree_, assignment, procs);
}

std::vector<double> ModelEnvironment::best_load(std::uint32_t procs) const {
  const auto assignment = loadbal::partition_greedy_lpt(vfree_, procs);
  return loadbal::per_part_load(vfree_, assignment, procs);
}

double ModelEnvironment::cv_naive(std::uint32_t procs) const {
  return summarize(naive_load(procs)).cv();
}

double ModelEnvironment::cv_best(std::uint32_t procs) const {
  return summarize(best_load(procs)).cv();
}

double ModelEnvironment::max_load_improvement_pct(std::uint32_t procs) const {
  const double naive_max = summarize(naive_load(procs)).max;
  const double best_max = summarize(best_load(procs)).max;
  if (naive_max <= 0.0) return 0.0;
  return 100.0 * (naive_max - best_max) / naive_max;
}

}  // namespace pmpl::model
