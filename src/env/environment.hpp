#pragma once
/// \file environment.hpp
/// A motion-planning problem instance: C-space + obstacles + robot.
///
/// Owns the collision checker and validity checker so planners only carry a
/// `const Environment&`. Immutable after construction; safe to share across
/// threads.

#include <memory>
#include <string>
#include <vector>

#include "collision/checker.hpp"
#include "cspace/local_planner.hpp"
#include "cspace/space.hpp"
#include "cspace/validity.hpp"

namespace pmpl::env {

/// Which validity model the environment uses.
enum class RobotModel {
  kPoint,      ///< point robot (model environment, V_free studies)
  kRigidBody,  ///< paper's rigid-body robot
};

/// Problem instance. Construct via the named builders in builders.hpp or
/// directly for custom setups.
class Environment {
 public:
  Environment(std::string name, cspace::CSpace space,
              std::vector<collision::ObstacleShape> obstacles,
              collision::RigidBody robot,
              RobotModel model = RobotModel::kRigidBody);

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  const std::string& name() const noexcept { return name_; }
  const cspace::CSpace& space() const noexcept { return space_; }
  const collision::CollisionChecker& checker() const noexcept {
    return checker_;
  }
  const cspace::ValidityChecker& validity() const noexcept {
    return *validity_;
  }
  const collision::RigidBody& robot() const noexcept { return robot_; }

  /// Monte-Carlo estimate of the blocked volume fraction (point samples).
  double blocked_fraction(std::size_t samples = 20000,
                          std::uint64_t seed = 12345) const;

 private:
  std::string name_;
  cspace::CSpace space_;
  collision::CollisionChecker checker_;
  collision::RigidBody robot_;
  std::unique_ptr<cspace::ValidityChecker> validity_;
};

}  // namespace pmpl::env
