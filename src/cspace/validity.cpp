#include "cspace/validity.hpp"

#include <cmath>

namespace pmpl::cspace {

std::size_t RigidBodyValidity::valid_batch(
    std::span<const Config> cs, collision::CollisionStats* stats) const {
  geo::PoseBlock block;
  std::size_t i = 0;
  while (i < cs.size()) {
    // Collect a run of in-bounds configs, transforming to SoA pose lanes.
    block.clear();
    while (!block.full() && i + block.count < cs.size()) {
      if (!space_->in_bounds(cs[i + block.count])) break;
      space_->pose_into(cs[i + block.count], block);
    }
    const std::size_t m = block.count;
    if (m > 0) {
      const std::size_t hit = checker_->first_collision(robot_, block, stats);
      if (hit < m) return i + hit;
      i += m;
    }
    // The run ended before the block filled: either we consumed all of
    // `cs` (loop exits) or cs[i] is out of bounds — the first invalid one.
    if (m < geo::PoseBlock::kCapacity && i < cs.size()) return i;
  }
  return cs.size();
}

std::uint32_t RigidBodyValidity::valid_mask(
    std::span<const Config> cs, collision::CollisionStats* stats) const {
  std::uint32_t mask = 0;
  std::size_t i = 0;
  while (i < cs.size()) {
    geo::PoseBlock block;
    std::size_t owner[geo::PoseBlock::kCapacity] = {};
    // Out-of-bounds configs are invalid without a collision query (exactly
    // like `valid()`): they simply never enter the block.
    std::size_t consumed = 0;
    while (i + consumed < cs.size() && !block.full()) {
      const Config& c = cs[i + consumed];
      if (space_->in_bounds(c)) {
        owner[block.count] = i + consumed;
        space_->pose_into(c, block);
      }
      ++consumed;
    }
    const std::uint32_t collide =
        checker_->collision_mask(robot_, block, stats);
    for (std::size_t j = 0; j < block.count; ++j)
      if (!(collide >> j & 1u)) mask |= 1u << owner[j];
    i += consumed;
  }
  return mask;
}

std::vector<geo::Vec3> PlanarArmValidity::forward_kinematics(
    const Config& c) const {
  std::vector<geo::Vec3> joints;
  joints.reserve(link_lengths_.size() + 1);
  joints.push_back(base_);
  double angle = 0.0;
  geo::Vec3 p = base_;
  for (std::size_t i = 0; i < link_lengths_.size(); ++i) {
    angle += c[i];  // cumulative joint angles
    p = p + geo::Vec3{std::cos(angle), std::sin(angle), 0.0} *
                link_lengths_[i];
    joints.push_back(p);
  }
  return joints;
}

bool PlanarArmValidity::valid(const Config& c,
                              collision::CollisionStats* stats) const {
  if (!space_->in_bounds(c)) return false;
  const auto joints = forward_kinematics(c);
  // Each link is an OBB: centered on the segment midpoint, oriented along
  // the link, half-extents (len/2, width/2, width/2).
  for (std::size_t i = 0; i + 1 < joints.size(); ++i) {
    const geo::Vec3 a = joints[i];
    const geo::Vec3 b = joints[i + 1];
    const geo::Vec3 mid = (a + b) * 0.5;
    const geo::Vec3 d = b - a;
    const double len = d.norm();
    if (len <= 0.0) continue;
    const double angle = std::atan2(d.y, d.x);
    const geo::Obb link{mid,
                        {0.5 * len, 0.5 * link_width_, 0.5 * link_width_},
                        geo::Mat3::rot_z(angle)};
    const collision::RigidBody body = [&] {
      collision::RigidBody rb;
      rb.boxes.push_back(
          geo::Obb{{0, 0, 0}, link.half, geo::Mat3::identity()});
      return rb;
    }();
    geo::Transform pose{geo::Quat::from_axis_angle({0, 0, 1}, angle), mid};
    if (checker_->in_collision(body, pose, stats)) return false;
  }
  // Self-collision between non-adjacent links (segment distance test).
  for (std::size_t i = 0; i + 1 < joints.size(); ++i) {
    for (std::size_t j = i + 2; j + 1 < joints.size(); ++j) {
      const geo::Segment si{joints[i], joints[i + 1]};
      const geo::Segment sj{joints[j], joints[j + 1]};
      // Conservative: closest point of sj's endpoints to si.
      const double d =
          std::min((geo::closest_point(si, sj.a) - sj.a).norm(),
                   (geo::closest_point(si, sj.b) - sj.b).norm());
      if (d < link_width_ && !(i == 0 && j + 2 == joints.size())) {
        // Allow near-touch between the very first and last link tips.
        if (stats) ++stats->narrow_tests;
        return false;
      }
    }
  }
  return true;
}

}  // namespace pmpl::cspace
