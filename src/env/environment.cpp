#include "env/environment.hpp"

#include "util/rng.hpp"

namespace pmpl::env {

Environment::Environment(std::string name, cspace::CSpace space,
                         std::vector<collision::ObstacleShape> obstacles,
                         collision::RigidBody robot, RobotModel model)
    : name_(std::move(name)),
      space_(std::move(space)),
      checker_(std::move(obstacles)),
      robot_(std::move(robot)) {
  switch (model) {
    case RobotModel::kPoint:
      validity_ = std::make_unique<cspace::PointValidity>(space_, checker_);
      break;
    case RobotModel::kRigidBody:
      validity_ = std::make_unique<cspace::RigidBodyValidity>(space_, robot_,
                                                              checker_);
      break;
  }
}

double Environment::blocked_fraction(std::size_t samples,
                                     std::uint64_t seed) const {
  Xoshiro256ss rng(seed);
  const geo::Aabb& b = space_.position_bounds();
  std::size_t blocked = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const geo::Vec3 p{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
                      rng.uniform(b.lo.z, b.hi.z)};
    if (checker_.point_in_collision(p)) ++blocked;
  }
  return static_cast<double>(blocked) / static_cast<double>(samples);
}

}  // namespace pmpl::env
