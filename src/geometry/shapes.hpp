#pragma once
/// \file shapes.hpp
/// Geometric primitives: AABB, OBB, sphere, triangle, segment, ray.
///
/// Obstacles in the environments are AABBs, OBBs and spheres; triangles are
/// supported as a mesh-obstacle primitive. `Aabb` doubles as the bounding
/// volume for the BVH and the spatial extent of subdivision regions.

#include <array>

#include "geometry/quat.hpp"
#include "geometry/vec.hpp"

namespace pmpl::geo {

/// Axis-aligned bounding box [lo, hi] (closed; degenerate boxes allowed).
struct Aabb {
  Vec3 lo{0, 0, 0};
  Vec3 hi{0, 0, 0};

  /// An "empty" box that any point/box extends past.
  static constexpr Aabb empty() noexcept {
    constexpr double kInf = 1e300;
    return {{kInf, kInf, kInf}, {-kInf, -kInf, -kInf}};
  }

  static constexpr Aabb from_center(Vec3 center, Vec3 half) noexcept {
    return {center - half, center + half};
  }

  constexpr Vec3 center() const noexcept { return (lo + hi) * 0.5; }
  constexpr Vec3 extents() const noexcept { return (hi - lo) * 0.5; }
  constexpr Vec3 size() const noexcept { return hi - lo; }

  constexpr double volume() const noexcept {
    const Vec3 s = size();
    return s.x * s.y * s.z;
  }

  constexpr bool contains(Vec3 p) const noexcept {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  constexpr bool overlaps(const Aabb& o) const noexcept {
    return lo.x <= o.hi.x && hi.x >= o.lo.x && lo.y <= o.hi.y &&
           hi.y >= o.lo.y && lo.z <= o.hi.z && hi.z >= o.lo.z;
  }

  constexpr Aabb merged(const Aabb& o) const noexcept {
    return {min(lo, o.lo), max(hi, o.hi)};
  }

  constexpr Aabb expanded(double eps) const noexcept {
    return {lo - Vec3{eps, eps, eps}, hi + Vec3{eps, eps, eps}};
  }

  /// Intersection box (may be inverted if disjoint; check overlaps() first).
  constexpr Aabb intersection(const Aabb& o) const noexcept {
    return {max(lo, o.lo), min(hi, o.hi)};
  }

  /// Volume of overlap with `o` (0 when disjoint). Used by the analytic
  /// model-environment V_free computation.
  constexpr double overlap_volume(const Aabb& o) const noexcept {
    const double dx = (hi.x < o.hi.x ? hi.x : o.hi.x) -
                      (lo.x > o.lo.x ? lo.x : o.lo.x);
    const double dy = (hi.y < o.hi.y ? hi.y : o.hi.y) -
                      (lo.y > o.lo.y ? lo.y : o.lo.y);
    const double dz = (hi.z < o.hi.z ? hi.z : o.hi.z) -
                      (lo.z > o.lo.z ? lo.z : o.lo.z);
    if (dx <= 0.0 || dy <= 0.0 || dz <= 0.0) return 0.0;
    return dx * dy * dz;
  }

  /// Closest point inside the box to `p`.
  constexpr Vec3 clamp(Vec3 p) const noexcept {
    const Vec3 a = max(lo, p);
    return min(hi, a);
  }

  friend constexpr bool operator==(const Aabb&, const Aabb&) = default;
};

/// Oriented bounding box: center, half-extents, rotation (body -> world).
struct Obb {
  Vec3 center{0, 0, 0};
  Vec3 half{1, 1, 1};
  Mat3 rot = Mat3::identity();

  static Obb from_aabb(const Aabb& b) noexcept {
    return {b.center(), b.extents(), Mat3::identity()};
  }

  /// World-space AABB enclosing this OBB.
  Aabb bounds() const noexcept {
    // |R| * half gives the world-axis extents.
    Vec3 e{0, 0, 0};
    for (std::size_t i = 0; i < 3; ++i) {
      const Vec3 axis = rot.col(i);
      e += Vec3{std::fabs(axis.x), std::fabs(axis.y), std::fabs(axis.z)} *
           half[i];
    }
    return {center - e, center + e};
  }

  constexpr double volume() const noexcept {
    return 8.0 * half.x * half.y * half.z;
  }

  /// Map a world point into the box's local frame.
  constexpr Vec3 to_local(Vec3 p) const noexcept {
    return rot.transposed() * (p - center);
  }

  constexpr bool contains(Vec3 p) const noexcept {
    const Vec3 q = to_local(p);
    return q.x >= -half.x && q.x <= half.x && q.y >= -half.y &&
           q.y <= half.y && q.z >= -half.z && q.z <= half.z;
  }
};

/// Sphere obstacle / robot body.
struct Sphere {
  Vec3 center{0, 0, 0};
  double radius = 1.0;

  constexpr bool contains(Vec3 p) const noexcept {
    return (p - center).norm2() <= radius * radius;
  }

  constexpr Aabb bounds() const noexcept {
    const Vec3 r{radius, radius, radius};
    return {center - r, center + r};
  }
};

/// Triangle (mesh-obstacle primitive).
struct Triangle {
  std::array<Vec3, 3> v;

  Vec3 normal() const noexcept {
    return (v[1] - v[0]).cross(v[2] - v[0]).normalized();
  }

  Aabb bounds() const noexcept {
    return {min(min(v[0], v[1]), v[2]), max(max(v[0], v[1]), v[2])};
  }

  double area() const noexcept {
    return 0.5 * (v[1] - v[0]).cross(v[2] - v[0]).norm();
  }
};

/// Line segment between two points.
struct Segment {
  Vec3 a, b;
  Vec3 dir() const noexcept { return b - a; }
  double length() const noexcept { return dir().norm(); }
  Vec3 at(double t) const noexcept { return a + dir() * t; }
};

/// Half-infinite ray (origin + unit direction); used by the k-random-rays
/// RRT work estimator and BVH traversal.
struct Ray {
  Vec3 origin;
  Vec3 dir;  ///< should be unit length for distance queries
  Vec3 at(double t) const noexcept { return origin + dir * t; }
};

}  // namespace pmpl::geo
