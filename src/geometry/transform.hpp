#pragma once
/// \file transform.hpp
/// Rigid-body transform (rotation + translation) used to place robot bodies
/// at a configuration's pose.

#include "geometry/quat.hpp"
#include "geometry/shapes.hpp"
#include "geometry/vec.hpp"

namespace pmpl::geo {

/// SE(3) rigid transform: p -> R*p + t.
struct Transform {
  Quat rotation = Quat::identity();
  Vec3 translation{0, 0, 0};

  static constexpr Transform identity() noexcept { return {}; }

  constexpr Vec3 apply(Vec3 p) const noexcept {
    return rotation.rotate(p) + translation;
  }

  /// Compose: (this ∘ other)(p) == this(other(p)).
  constexpr Transform operator*(const Transform& o) const noexcept {
    return {rotation * o.rotation, rotation.rotate(o.translation) + translation};
  }

  /// Place a body-frame OBB in the world.
  Obb apply(const Obb& box) const noexcept {
    return {apply(box.center), box.half,
            (rotation.to_matrix() * box.rot)};
  }

  Sphere apply(const Sphere& s) const noexcept {
    return {apply(s.center), s.radius};
  }
};

}  // namespace pmpl::geo
