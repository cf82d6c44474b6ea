#pragma once
/// \file quat.hpp
/// Unit quaternions for SE(3) configuration orientations.

#include <cmath>

#include "geometry/vec.hpp"

namespace pmpl::geo {

/// Quaternion (w, x, y, z). Functions that assume unit length say so.
struct Quat {
  double w = 1.0, x = 0.0, y = 0.0, z = 0.0;

  static constexpr Quat identity() noexcept { return {}; }

  static Quat from_axis_angle(Vec3 axis, double angle) noexcept {
    const Vec3 u = axis.normalized();
    const double h = 0.5 * angle;
    const double s = std::sin(h);
    return {std::cos(h), u.x * s, u.y * s, u.z * s};
  }

  /// Uniform random rotation from three independent U[0,1) variates
  /// (Shoemake's subgroup algorithm).
  static Quat uniform(double u1, double u2, double u3) noexcept {
    constexpr double kTau = 6.283185307179586476925286766559;
    const double a = std::sqrt(1.0 - u1), b = std::sqrt(u1);
    return {a * std::sin(kTau * u2), a * std::cos(kTau * u2),
            b * std::sin(kTau * u3), b * std::cos(kTau * u3)};
  }

  constexpr double dot(Quat o) const noexcept {
    return w * o.w + x * o.x + y * o.y + z * o.z;
  }

  double norm() const noexcept { return std::sqrt(dot(*this)); }

  Quat normalized() const noexcept {
    const double n = norm();
    if (n <= 0.0) return identity();
    return {w / n, x / n, y / n, z / n};
  }

  constexpr Quat operator*(Quat o) const noexcept {
    return {w * o.w - x * o.x - y * o.y - z * o.z,
            w * o.x + x * o.w + y * o.z - z * o.y,
            w * o.y - x * o.z + y * o.w + z * o.x,
            w * o.z + x * o.y - y * o.x + z * o.w};
  }

  /// Rotate a vector (assumes unit quaternion).
  constexpr Vec3 rotate(Vec3 v) const noexcept {
    // v' = v + 2*q_vec x (q_vec x v + w*v)
    const Vec3 qv{x, y, z};
    const Vec3 t = qv.cross(v) * 2.0;
    return v + t * w + qv.cross(t);
  }

  /// Rotation matrix equivalent (assumes unit quaternion).
  constexpr Mat3 to_matrix() const noexcept {
    const double xx = x * x, yy = y * y, zz = z * z;
    const double xy = x * y, xz = x * z, yz = y * z;
    const double wx = w * x, wy = w * y, wz = w * z;
    return {{1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)},
            {2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)},
            {2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)}};
  }

  /// Geodesic angle between two unit quaternions, in [0, pi].
  double angle_to(Quat o) const noexcept {
    const double d = std::fabs(dot(o));
    const double c = d > 1.0 ? 1.0 : d;
    return 2.0 * std::acos(c);
  }

  /// Spherical linear interpolation between unit quaternions, shortest arc.
  Quat slerp(Quat o, double t) const noexcept {
    double d = dot(o);
    Quat target = o;
    if (d < 0.0) {  // take the short way around
      d = -d;
      target = {-o.w, -o.x, -o.y, -o.z};
    }
    if (d > 0.9995) {  // nearly parallel: nlerp to avoid division blowup
      Quat r{w + t * (target.w - w), x + t * (target.x - x),
             y + t * (target.y - y), z + t * (target.z - z)};
      return r.normalized();
    }
    const double theta = std::acos(d);
    const double s = std::sin(theta);
    const double a = std::sin((1.0 - t) * theta) / s;
    const double b = std::sin(t * theta) / s;
    return {a * w + b * target.w, a * x + b * target.x, a * y + b * target.y,
            a * z + b * target.z};
  }

  friend constexpr bool operator==(Quat, Quat) = default;
};

}  // namespace pmpl::geo
