// Tests for env/: environment builders, blocked fractions, free-volume
// estimation.

#include <gtest/gtest.h>

#include "env/builders.hpp"
#include "env/environment.hpp"
#include "util/rng.hpp"

namespace pmpl::env {
namespace {

/// Monte-Carlo estimate of the free-space fraction of `box` (point
/// samples; a flat box samples its z plane).
double free_fraction_in(const Environment& e, const geo::Aabb& box,
                        std::size_t samples) {
  Xoshiro256ss rng(12345);
  std::size_t free = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const geo::Vec3 p{rng.uniform(box.lo.x, box.hi.x),
                      rng.uniform(box.lo.y, box.hi.y),
                      box.lo.z == box.hi.z ? box.lo.z
                                           : rng.uniform(box.lo.z, box.hi.z)};
    if (!e.checker().point_in_collision(p)) ++free;
  }
  return static_cast<double>(free) / static_cast<double>(samples);
}

TEST(Env, FreeEnvironmentIsEmpty) {
  const auto e = free_env();
  EXPECT_EQ(e->checker().obstacle_count(), 0u);
  EXPECT_DOUBLE_EQ(e->blocked_fraction(2000), 0.0);
}

TEST(Env, MedCubeBlockedFractionNearTarget) {
  const auto e = med_cube();
  EXPECT_NEAR(e->blocked_fraction(20000), 0.24, 0.02);
}

TEST(Env, SmallCubeBlockedFractionNearTarget) {
  const auto e = small_cube();
  EXPECT_NEAR(e->blocked_fraction(20000), 0.06, 0.015);
}

TEST(Env, MixedEnvironmentsHitBlockedTargets) {
  // Clutter accounting ignores box overlap, so the realized fraction is
  // somewhat below the nominal target but must be substantial and ordered.
  const auto m60 = mixed(0.60);
  const auto m30 = mixed(0.30);
  const double b60 = m60->blocked_fraction(20000);
  const double b30 = m30->blocked_fraction(20000);
  EXPECT_GT(b60, b30);
  EXPECT_GT(b60, 0.35);
  EXPECT_GT(b30, 0.18);
  EXPECT_LT(b60, 0.65);
}

TEST(Env, MixedIsSpatiallySkewed) {
  // More clutter toward +x: the -x half must be freer.
  const auto e = mixed(0.60);
  const geo::Aabb left{{0, 0, 0}, {50, 100, 100}};
  const geo::Aabb right{{50, 0, 0}, {100, 100, 100}};
  EXPECT_GT(free_fraction_in(*e, left, 4000),
            free_fraction_in(*e, right, 4000));
}

TEST(Env, WallsHaveObstaclesAndPassages) {
  const auto e = walls(false);
  EXPECT_GE(e->checker().obstacle_count(), 10u);
  const double blocked = e->blocked_fraction(20000);
  EXPECT_GT(blocked, 0.05);
  EXPECT_LT(blocked, 0.5);
}

TEST(Env, Walls45UsesRotatedBoxes) {
  const auto e = walls(true);
  EXPECT_GE(e->checker().obstacle_count(), 10u);
  // Same rough blockage as the axis-aligned variant.
  EXPECT_NEAR(e->blocked_fraction(20000), walls(false)->blocked_fraction(20000),
              0.15);
}

TEST(Env, Model2dBlockedFraction) {
  const auto e = model_2d(0.25);
  EXPECT_NE(dynamic_cast<const cspace::PointValidity*>(&e->validity()),
            nullptr);
  // 2D workspace: sample z collapses to the slab; estimate via region box.
  const geo::Aabb plane{{0, 0, 0}, {1, 1, 0}};
  const double free = free_fraction_in(*e, plane, 20000);
  EXPECT_NEAR(free, 0.75, 0.02);
}

TEST(Env, Model2dObstacleIsCentered) {
  const auto e = model_2d(0.25);
  // sqrt(0.25)=0.5 side centered: [0.25, 0.75]^2 blocked.
  EXPECT_TRUE(e->checker().point_in_collision({0.5, 0.5, 0.0}));
  EXPECT_FALSE(e->checker().point_in_collision({0.1, 0.5, 0.0}));
  EXPECT_FALSE(e->checker().point_in_collision({0.5, 0.9, 0.0}));
}

TEST(Env, Imbalanced2dQuadrantsDiffer) {
  const auto e = imbalanced_2d();
  // Upper-left quadrant (Fig 3's open R0) is much freer than the right.
  const geo::Aabb open_quad{{0, 50, -1}, {50, 100, 1}};
  const geo::Aabb busy_quad{{50, 0, -1}, {100, 50, 1}};
  EXPECT_GT(free_fraction_in(*e, open_quad, 4000),
            free_fraction_in(*e, busy_quad, 4000) + 0.3);
}

TEST(Env, MazeAndWarehouseBuild) {
  const auto m = maze_2d();
  EXPECT_GT(m->checker().obstacle_count(), 5u);
  EXPECT_EQ(m->space().kind(), cspace::SpaceKind::SE2);
  const auto w = warehouse();
  EXPECT_GT(w->checker().obstacle_count(), 4u);
  EXPECT_EQ(w->space().kind(), cspace::SpaceKind::SE3);
}

TEST(Env, FreeFractionInBlockedRegionIsZero) {
  const auto e = med_cube();
  // A box fully inside the central cube.
  const geo::Aabb inside{{45, 45, 45}, {55, 55, 55}};
  EXPECT_DOUBLE_EQ(free_fraction_in(*e, inside, 500), 0.0);
  const geo::Aabb corner{{0, 0, 0}, {5, 5, 5}};
  EXPECT_DOUBLE_EQ(free_fraction_in(*e, corner, 500), 1.0);
}

TEST(Env, ValidityRespectsRobotModel) {
  const auto e = med_cube();
  Xoshiro256ss rng(5);
  // A pose near the cube face: free for a point but blocked for the robot.
  const auto& s = e->space();
  // Cube spans [19.07, 81] roughly for 24%: side = 100*cbrt(.24) = 62.14,
  // lo = 18.93. Place robot center 3 units off the face: the 7-half robot
  // overlaps.
  const cspace::Config c = s.at_position({15.0, 50.0, 50.0}, rng);
  EXPECT_FALSE(e->checker().point_in_collision({15.0, 50.0, 50.0}));
  EXPECT_FALSE(e->validity().valid(c));  // rigid body hits
}

TEST(Env, DeterministicBuilders) {
  // Randomized builders (mixed) must be reproducible across calls.
  const auto a = mixed(0.30);
  const auto b = mixed(0.30);
  EXPECT_EQ(a->checker().obstacle_count(), b->checker().obstacle_count());
}

}  // namespace
}  // namespace pmpl::env
