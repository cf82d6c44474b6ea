// Tests for collision/: shape dispatch, BVH, environment checker.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "collision/bvh.hpp"
#include "collision/checker.hpp"
#include "collision/shape.hpp"
#include "util/rng.hpp"

namespace pmpl::collision {
namespace {

using geo::Aabb;
using geo::Mat3;
using geo::Obb;
using geo::Quat;
using geo::Ray;
using geo::Segment;
using geo::Sphere;
using geo::Vec3;

// --- shape dispatch ---------------------------------------------------

TEST(Shape, BoundsOfEveryVariant) {
  EXPECT_EQ(bounds_of(ObstacleShape{Aabb{{0, 0, 0}, {1, 1, 1}}}).hi,
            (Vec3{1, 1, 1}));
  const auto sb = bounds_of(ObstacleShape{Sphere{{0, 0, 0}, 2}});
  EXPECT_EQ(sb.lo, (Vec3{-2, -2, -2}));
  const auto ob =
      bounds_of(ObstacleShape{Obb{{0, 0, 0}, {1, 1, 1}, Mat3::identity()}});
  EXPECT_EQ(ob.hi, (Vec3{1, 1, 1}));
  const auto tb = bounds_of(
      ObstacleShape{Triangle{{Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 2, 3}}}});
  EXPECT_EQ(tb.hi, (Vec3{1, 2, 3}));
}

TEST(Shape, ContainsPointPerVariant) {
  EXPECT_TRUE(contains(ObstacleShape{Aabb{{0, 0, 0}, {1, 1, 1}}},
                       {0.5, 0.5, 0.5}));
  EXPECT_FALSE(contains(ObstacleShape{Aabb{{0, 0, 0}, {1, 1, 1}}},
                        {1.5, 0.5, 0.5}));
  EXPECT_TRUE(contains(ObstacleShape{Sphere{{0, 0, 0}, 1}}, {0.5, 0, 0}));
  // Triangles have zero volume.
  EXPECT_FALSE(contains(
      ObstacleShape{Triangle{{Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}}}},
      {0.2, 0.2, 0.0}));
}

TEST(Shape, ObbBodyVsObstacles) {
  const Obb body{{0, 0, 0}, {0.5, 0.5, 0.5}, Mat3::identity()};
  EXPECT_TRUE(hits(body, ObstacleShape{Aabb{{0.4, 0, 0}, {2, 1, 1}}}));
  EXPECT_FALSE(hits(body, ObstacleShape{Aabb{{2, 2, 2}, {3, 3, 3}}}));
  EXPECT_TRUE(hits(body, ObstacleShape{Sphere{{1.2, 0, 0}, 0.8}}));
  EXPECT_FALSE(hits(body, ObstacleShape{Sphere{{3, 0, 0}, 0.8}}));
}

TEST(Shape, SphereBodyVsObstacles) {
  const Sphere body{{0, 0, 0}, 1.0};
  EXPECT_TRUE(hits(body, ObstacleShape{Obb{{1.5, 0, 0},
                                           {0.6, 0.6, 0.6},
                                           Mat3::identity()}}));
  EXPECT_FALSE(hits(body, ObstacleShape{Obb{{3, 0, 0},
                                            {0.6, 0.6, 0.6},
                                            Mat3::identity()}}));
}

TEST(Shape, SegmentVsTriangleObstacle) {
  const ObstacleShape tri =
      Triangle{{Vec3{0, 0, 1}, Vec3{2, 0, 1}, Vec3{0, 2, 1}}};
  EXPECT_TRUE(hits(Segment{{0.3, 0.3, 0}, {0.3, 0.3, 2}}, tri));
  EXPECT_FALSE(hits(Segment{{0.3, 0.3, 0}, {0.3, 0.3, 0.5}}, tri));
}

TEST(Shape, RigidBodyFactoryAndRadius) {
  const RigidBody box = RigidBody::box({1, 2, 3});
  EXPECT_EQ(box.boxes.size(), 1u);
  EXPECT_EQ(box.boxes[0].half, (Vec3{1, 2, 3}));
  const RigidBody ball = RigidBody::sphere(2.5);
  EXPECT_EQ(ball.spheres.size(), 1u);
  EXPECT_DOUBLE_EQ(ball.spheres[0].radius, 2.5);
}

// --- BVH ----------------------------------------------------------------

std::vector<ObstacleShape> random_boxes(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<ObstacleShape> obs;
  obs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 c{rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.uniform(0, 100)};
    const Vec3 h{rng.uniform(0.5, 4), rng.uniform(0.5, 4),
                 rng.uniform(0.5, 4)};
    obs.push_back(Aabb::from_center(c, h));
  }
  return obs;
}

TEST(Bvh, EmptyTree) {
  Bvh bvh;
  EXPECT_TRUE(bvh.empty());
  EXPECT_FALSE(bvh.for_each_overlap(Aabb{{0, 0, 0}, {1, 1, 1}},
                                    [](std::uint32_t) { return true; }));
}

TEST(Bvh, SingleShape) {
  std::vector<ObstacleShape> obs{Aabb{{0, 0, 0}, {1, 1, 1}}};
  Bvh bvh;
  bvh.build(obs);
  int visits = 0;
  bvh.for_each_overlap(Aabb{{0.5, 0.5, 0.5}, {2, 2, 2}},
                       [&](std::uint32_t i) {
                         EXPECT_EQ(i, 0u);
                         ++visits;
                         return false;
                       });
  EXPECT_EQ(visits, 1);
}

TEST(Bvh, OverlapQueryMatchesLinearScan) {
  const auto obs = random_boxes(300, 31);
  Bvh bvh;
  bvh.build(obs);
  Xoshiro256ss rng(32);
  for (int q = 0; q < 200; ++q) {
    const Vec3 c{rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.uniform(0, 100)};
    const Aabb query = Aabb::from_center(c, {5, 5, 5});
    std::set<std::uint32_t> from_bvh;
    bvh.for_each_overlap(query, [&](std::uint32_t i) {
      from_bvh.insert(i);
      return false;  // exhaustive
    });
    std::set<std::uint32_t> from_scan;
    for (std::uint32_t i = 0; i < obs.size(); ++i)
      if (bounds_of(obs[i]).overlaps(query)) from_scan.insert(i);
    EXPECT_EQ(from_bvh, from_scan) << "query " << q;
  }
}

TEST(Bvh, EarlyStopReturnsTrue) {
  const auto obs = random_boxes(100, 33);
  Bvh bvh;
  bvh.build(obs);
  const bool stopped = bvh.for_each_overlap(
      bvh.bounds(), [](std::uint32_t) { return true; });
  EXPECT_TRUE(stopped);
}

TEST(Bvh, RaycastFindsNearestHit) {
  std::vector<ObstacleShape> obs{Aabb{{10, -1, -1}, {12, 1, 1}},
                                 Aabb{{5, -1, -1}, {6, 1, 1}},
                                 Aabb{{20, -1, -1}, {22, 1, 1}}};
  Bvh bvh;
  bvh.build(obs);
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  const auto t = bvh.raycast_with(ray, [&](std::uint32_t i) {
    return ray_distance(ray, obs[i]);
  });
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-12);
}

TEST(Bvh, RaycastMissReturnsNullopt) {
  const auto obs = random_boxes(50, 35);
  Bvh bvh;
  bvh.build(obs);
  const Ray ray{{0, 0, -500}, {0, 0, -1}};  // points away from everything
  EXPECT_FALSE(bvh.raycast_with(ray, [&](std::uint32_t i) {
                    return ray_distance(ray, obs[i]);
                  }).has_value());
}

TEST(Bvh, TraversalStatsPopulated) {
  const auto obs = random_boxes(200, 36);
  Bvh bvh;
  bvh.build(obs);
  TraversalStats stats;
  bvh.for_each_overlap(Aabb{{0, 0, 0}, {100, 100, 100}},
                       [](std::uint32_t) { return false; }, &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_EQ(stats.leaves_tested, 200u);
}

// --- CollisionChecker -----------------------------------------------------

TEST(Checker, PointQueries) {
  CollisionChecker checker({Aabb{{0, 0, 0}, {10, 10, 10}}});
  CollisionStats stats;
  EXPECT_TRUE(checker.point_in_collision({5, 5, 5}, &stats));
  EXPECT_FALSE(checker.point_in_collision({15, 5, 5}, &stats));
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_GT(stats.narrow_tests, 0u);
}

TEST(Checker, RobotBoxCollision) {
  CollisionChecker checker({Aabb{{10, 0, 0}, {20, 10, 10}}});
  const RigidBody robot = RigidBody::box({1, 1, 1});
  CollisionStats stats;
  EXPECT_FALSE(checker.in_collision(
      robot, {geo::Quat::identity(), {5, 5, 5}}, &stats));
  EXPECT_TRUE(checker.in_collision(
      robot, {geo::Quat::identity(), {10.5, 5, 5}}, &stats));
  // Rotation matters: a long thin robot rotated to point at the wall.
  const RigidBody stick = RigidBody::box({3, 0.1, 0.1});
  EXPECT_TRUE(checker.in_collision(
      stick, {geo::Quat::identity(), {7.5, 5, 5}}, nullptr));
  EXPECT_FALSE(checker.in_collision(
      stick,
      {geo::Quat::from_axis_angle({0, 0, 1}, 1.5707963), {7.5, 5, 5}},
      nullptr));
}

TEST(Checker, SegmentQueries) {
  CollisionChecker checker({Aabb{{4, 4, 4}, {6, 6, 6}}});
  EXPECT_TRUE(checker.segment_in_collision(Segment{{0, 5, 5}, {10, 5, 5}}));
  EXPECT_FALSE(checker.segment_in_collision(Segment{{0, 0, 0}, {10, 0, 0}}));
}

TEST(Checker, RaycastDistance) {
  CollisionChecker checker(
      {Aabb{{4, -10, -10}, {6, 10, 10}}, Sphere{{20, 0, 0}, 1}});
  const auto t = checker.raycast(Ray{{0, 0, 0}, {1, 0, 0}});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.0, 1e-12);
  EXPECT_FALSE(checker.raycast(Ray{{0, 0, 20}, {0, 0, 1}}).has_value());
}

TEST(Checker, EmptyEnvironmentNeverCollides) {
  CollisionChecker checker(std::vector<ObstacleShape>{});
  const RigidBody robot = RigidBody::box({1, 1, 1});
  Xoshiro256ss rng(37);
  for (int i = 0; i < 100; ++i) {
    const geo::Transform pose{
        Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform()),
        {rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)}};
    EXPECT_FALSE(checker.in_collision(robot, pose));
  }
}

TEST(Checker, StatsAccumulateAcrossQueries) {
  CollisionChecker checker({Aabb{{0, 0, 0}, {1, 1, 1}}});
  CollisionStats a, b;
  checker.point_in_collision({0.5, 0.5, 0.5}, &a);
  checker.point_in_collision({0.5, 0.5, 0.5}, &b);
  CollisionStats total = a;
  total += b;
  EXPECT_EQ(total.queries, 2u);
  EXPECT_EQ(total.narrow_tests, a.narrow_tests + b.narrow_tests);
}

// Property sweep: BVH checker equals brute-force checker over random
// environments and random poses.
class CheckerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerProperty, BvhEqualsBruteForce) {
  const std::uint64_t seed = GetParam();
  const auto obs = random_boxes(80, seed);
  CollisionChecker checker(obs);
  const RigidBody robot = RigidBody::box({2, 1, 0.5});
  Xoshiro256ss rng(seed ^ 0xabcdef);
  for (int i = 0; i < 100; ++i) {
    const geo::Transform pose{
        Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform()),
        {rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)}};
    const Obb world = pose.apply(robot.boxes[0]);
    bool brute = false;
    for (const auto& o : obs)
      if (hits(world, o)) {
        brute = true;
        break;
      }
    EXPECT_EQ(checker.in_collision(robot, pose), brute) << "pose " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace pmpl::collision
