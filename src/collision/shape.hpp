#pragma once
/// \file shape.hpp
/// Obstacle shape variant and robot body description.
///
/// Environments are collections of `ObstacleShape`s; a robot is a small set
/// of body-frame primitives placed in the world by a rigid transform.

#include <optional>
#include <variant>

#include "geometry/intersect.hpp"
#include "geometry/shapes.hpp"
#include "geometry/transform.hpp"
#include "util/inline_vector.hpp"

namespace pmpl::collision {

using geo::Aabb;
using geo::Obb;
using geo::Ray;
using geo::Segment;
using geo::Sphere;
using geo::Triangle;
using geo::Vec3;

/// One obstacle primitive.
using ObstacleShape = std::variant<Aabb, Obb, Sphere, Triangle>;

/// World-space bounds of any obstacle shape.
inline Aabb bounds_of(const ObstacleShape& s) noexcept {
  return std::visit(
      [](const auto& shape) -> Aabb {
        using S = std::decay_t<decltype(shape)>;
        if constexpr (std::is_same_v<S, Aabb>)
          return shape;
        else
          return shape.bounds();
      },
      s);
}

/// Does a world-placed OBB (robot body) hit this obstacle?
bool hits(const Obb& body, const ObstacleShape& obstacle) noexcept;

/// Does a world-placed sphere (robot body) hit this obstacle?
bool hits(const Sphere& body, const ObstacleShape& obstacle) noexcept;

/// Does a point lie inside this obstacle? (Triangles are treated as
/// zero-volume: always false.)
bool contains(const ObstacleShape& obstacle, Vec3 p) noexcept;

/// Does a segment pass through this obstacle?
bool hits(const Segment& seg, const ObstacleShape& obstacle) noexcept;

/// Ray entry distance, or nullopt on miss.
std::optional<double> ray_distance(const Ray& r,
                                   const ObstacleShape& obstacle) noexcept;

/// A rigid robot: a union of body-frame boxes and spheres.
/// Placed in the world with `placed_boxes` / `placed_spheres`.
struct RigidBody {
  InlineVector<Obb, 4> boxes;
  InlineVector<Sphere, 4> spheres;

  /// A single axis-aligned box robot with the given half-extents (the
  /// rigid-body robot used throughout the paper's experiments).
  static RigidBody box(Vec3 half) {
    RigidBody r;
    r.boxes.push_back(Obb{{0, 0, 0}, half, geo::Mat3::identity()});
    return r;
  }

  static RigidBody sphere(double radius) {
    RigidBody r;
    r.spheres.push_back(Sphere{{0, 0, 0}, radius});
    return r;
  }
};

}  // namespace pmpl::collision
