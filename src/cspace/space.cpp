#include "cspace/space.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pmpl::cspace {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Shortest signed angular difference b - a in (-pi, pi].
double angle_diff(double a, double b) noexcept {
  // fmod(x, 2 pi) is exactly x for |x| < 2 pi, the common case for two
  // stored angles; skip the library call there.
  double d = b - a;
  if (!(std::fabs(d) < 2.0 * kPi)) d = std::fmod(d, 2.0 * kPi);
  if (d > kPi) d -= 2.0 * kPi;
  if (d <= -kPi) d += 2.0 * kPi;
  return d;
}

geo::Quat quat_of(const Config& c) noexcept {
  return geo::Quat{c[3], c[4], c[5], c[6]};
}

}  // namespace

CSpace CSpace::euclidean(std::vector<std::pair<double, double>> bounds) {
  assert(!bounds.empty() && bounds.size() <= kMaxConfigValues);
  CSpace s;
  s.kind_ = SpaceKind::Euclidean;
  s.value_count_ = bounds.size();
  s.dof_ = bounds.size();
  s.euclid_bounds_ = std::move(bounds);
  geo::Aabb box{{0, 0, 0}, {0, 0, 0}};
  for (std::size_t i = 0; i < std::min<std::size_t>(3, s.value_count_); ++i) {
    box.lo[i] = s.euclid_bounds_[i].first;
    box.hi[i] = s.euclid_bounds_[i].second;
  }
  s.pos_bounds_ = box;
  return s;
}

CSpace CSpace::se2(geo::Aabb pos, double rot_weight) {
  CSpace s;
  s.kind_ = SpaceKind::SE2;
  s.value_count_ = 3;
  s.dof_ = 3;
  pos.lo.z = 0.0;
  pos.hi.z = 0.0;
  s.pos_bounds_ = pos;
  s.rot_weight_ = rot_weight;
  return s;
}

CSpace CSpace::se3(geo::Aabb pos, double rot_weight) {
  CSpace s;
  s.kind_ = SpaceKind::SE3;
  s.value_count_ = 7;
  s.dof_ = 6;
  s.pos_bounds_ = pos;
  s.rot_weight_ = rot_weight;
  return s;
}

geo::Vec3 CSpace::position(const Config& c) const noexcept {
  geo::Vec3 p{0, 0, 0};
  const std::size_t n =
      kind_ == SpaceKind::SE2 ? 2 : std::min<std::size_t>(3, c.size());
  for (std::size_t i = 0; i < n; ++i) p[i] = c[i];
  return p;
}

geo::Transform CSpace::pose(const Config& c) const noexcept {
  switch (kind_) {
    case SpaceKind::SE2:
      return {geo::Quat::from_axis_angle({0, 0, 1}, c[2]),
              {c[0], c[1], 0.0}};
    case SpaceKind::SE3:
      return {quat_of(c).normalized(), {c[0], c[1], c[2]}};
    case SpaceKind::Euclidean:
      return {geo::Quat::identity(), position(c)};
  }
  return geo::Transform::identity();
}

Config CSpace::sample(Xoshiro256ss& rng) const {
  return sample_in(pos_bounds_, rng);
}

Config CSpace::sample_in(const geo::Aabb& box, Xoshiro256ss& rng) const {
  Config c;
  switch (kind_) {
    case SpaceKind::Euclidean: {
      for (std::size_t i = 0; i < value_count_; ++i) {
        double lo = euclid_bounds_[i].first;
        double hi = euclid_bounds_[i].second;
        // Restrict the first <=3 dims to the region box.
        if (i < 3) {
          lo = std::max(lo, box.lo[i]);
          hi = std::min(hi, box.hi[i]);
        }
        c.push_back(rng.uniform(lo, hi));
      }
      return c;
    }
    case SpaceKind::SE2: {
      c.push_back(rng.uniform(box.lo.x, box.hi.x));
      c.push_back(rng.uniform(box.lo.y, box.hi.y));
      c.push_back(rng.uniform(-kPi, kPi));
      return c;
    }
    case SpaceKind::SE3: {
      c.push_back(rng.uniform(box.lo.x, box.hi.x));
      c.push_back(rng.uniform(box.lo.y, box.hi.y));
      c.push_back(rng.uniform(box.lo.z, box.hi.z));
      const geo::Quat q =
          geo::Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform());
      c.push_back(q.w);
      c.push_back(q.x);
      c.push_back(q.y);
      c.push_back(q.z);
      return c;
    }
  }
  return c;
}

Config CSpace::at_position(geo::Vec3 p, Xoshiro256ss& rng) const {
  Config c = sample(rng);
  const std::size_t n =
      kind_ == SpaceKind::SE2 ? 2 : std::min<std::size_t>(3, c.size());
  for (std::size_t i = 0; i < n; ++i) c[i] = p[i];
  return c;
}

double CSpace::distance(const Config& a, const Config& b) const noexcept {
  switch (kind_) {
    case SpaceKind::Euclidean: {
      double d2 = 0.0;
      for (std::size_t i = 0; i < value_count_; ++i) {
        const double d = a[i] - b[i];
        d2 += d * d;
      }
      return std::sqrt(d2);
    }
    case SpaceKind::SE2: {
      const double dx = a[0] - b[0];
      const double dy = a[1] - b[1];
      const double da = angle_diff(a[2], b[2]);
      return std::sqrt(dx * dx + dy * dy) + rot_weight_ * std::fabs(da);
    }
    case SpaceKind::SE3: {
      const geo::Vec3 dp = position(a) - position(b);
      const double ang = quat_of(a).angle_to(quat_of(b));
      return dp.norm() + rot_weight_ * ang;
    }
  }
  return 0.0;
}

Config CSpace::interpolate(const Config& a, const Config& b,
                           double t) const noexcept {
  Config c;
  switch (kind_) {
    case SpaceKind::Euclidean: {
      for (std::size_t i = 0; i < value_count_; ++i)
        c.push_back(a[i] + t * (b[i] - a[i]));
      return c;
    }
    case SpaceKind::SE2: {
      c.push_back(a[0] + t * (b[0] - a[0]));
      c.push_back(a[1] + t * (b[1] - a[1]));
      c.push_back(a[2] + t * angle_diff(a[2], b[2]));
      return c;
    }
    case SpaceKind::SE3: {
      for (std::size_t i = 0; i < 3; ++i) c.push_back(a[i] + t * (b[i] - a[i]));
      const geo::Quat q = quat_of(a).slerp(quat_of(b), t);
      c.push_back(q.w);
      c.push_back(q.x);
      c.push_back(q.y);
      c.push_back(q.z);
      return c;
    }
  }
  return c;
}

std::size_t CSpace::step_count(const Config& a, const Config& b,
                               double resolution) const noexcept {
  assert(resolution > 0.0);
  const double d = distance(a, b);
  return static_cast<std::size_t>(std::ceil(d / resolution));
}

void EdgeInterpolator::reset(const CSpace& space, const Config& a,
                             const Config& b) noexcept {
  kind_ = space.kind();
  count_ = a.size();
  has_rot_ = false;
  switch (kind_) {
    case SpaceKind::Euclidean:
      lerp_count_ = count_;
      for (std::size_t i = 0; i < count_; ++i) {
        base_[i] = a[i];
        delta_[i] = b[i] - a[i];
      }
      return;
    case SpaceKind::SE2:
      lerp_count_ = 2;
      base_[0] = a[0];
      delta_[0] = b[0] - a[0];
      base_[1] = a[1];
      delta_[1] = b[1] - a[1];
      base_[2] = a[2];
      delta_[2] = angle_diff(a[2], b[2]);
      return;
    case SpaceKind::SE3: {
      lerp_count_ = 3;
      for (std::size_t i = 0; i < 3; ++i) {
        base_[i] = a[i];
        delta_[i] = b[i] - a[i];
      }
      has_rot_ = true;
      qa_ = quat_of(a);
      const geo::Quat qb = quat_of(b);
      // Invariant hoisting of Quat::slerp(qa, qb, t): sign flip, the
      // near-parallel branch choice, theta and sin(theta) do not depend
      // on t. The per-t expressions in at() are kept identical to slerp's.
      double d = qa_.dot(qb);
      qt_ = qb;
      if (d < 0.0) {
        d = -d;
        qt_ = {-qb.w, -qb.x, -qb.y, -qb.z};
      }
      nlerp_ = d > 0.9995;
      if (nlerp_) {
        qd_ = {qt_.w - qa_.w, qt_.x - qa_.x, qt_.y - qa_.y, qt_.z - qa_.z};
      } else {
        theta_ = std::acos(d);
        sin_theta_ = std::sin(theta_);
      }
      return;
    }
  }
}

void EdgeInterpolator::at(double t, Config& out) const noexcept {
  out.clear();
  for (std::size_t i = 0; i < lerp_count_; ++i)
    out.push_back(base_[i] + t * delta_[i]);
  if (kind_ == SpaceKind::SE2) {
    out.push_back(base_[2] + t * delta_[2]);
    return;
  }
  if (!has_rot_) return;
  geo::Quat q;
  if (nlerp_) {
    const geo::Quat r{qa_.w + t * qd_.w, qa_.x + t * qd_.x,
                      qa_.y + t * qd_.y, qa_.z + t * qd_.z};
    q = r.normalized();
  } else {
    const double sa = std::sin((1.0 - t) * theta_) / sin_theta_;
    const double sb = std::sin(t * theta_) / sin_theta_;
    q = {sa * qa_.w + sb * qt_.w, sa * qa_.x + sb * qt_.x,
         sa * qa_.y + sb * qt_.y, sa * qa_.z + sb * qt_.z};
  }
  out.push_back(q.w);
  out.push_back(q.x);
  out.push_back(q.y);
  out.push_back(q.z);
}

bool CSpace::in_bounds(const Config& c) const noexcept {
  switch (kind_) {
    case SpaceKind::Euclidean: {
      for (std::size_t i = 0; i < value_count_; ++i)
        if (c[i] < euclid_bounds_[i].first || c[i] > euclid_bounds_[i].second)
          return false;
      return true;
    }
    case SpaceKind::SE2:
      return c[0] >= pos_bounds_.lo.x && c[0] <= pos_bounds_.hi.x &&
             c[1] >= pos_bounds_.lo.y && c[1] <= pos_bounds_.hi.y;
    case SpaceKind::SE3:
      return pos_bounds_.contains(position(c));
  }
  return false;
}

}  // namespace pmpl::cspace
