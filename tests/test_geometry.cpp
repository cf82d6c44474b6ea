// Tests for geometry/: vectors, quaternions, transforms, shapes,
// intersection routines, Morton codes.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "geometry/intersect.hpp"
#include "geometry/morton.hpp"
#include "geometry/quat.hpp"
#include "geometry/shapes.hpp"
#include "geometry/transform.hpp"
#include "geometry/vec.hpp"
#include "util/rng.hpp"

namespace pmpl::geo {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- Vec --------------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotAndCross) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_EQ(x.dot(y), 0.0);
  EXPECT_EQ(x.cross(y), z);
  EXPECT_EQ(y.cross(z), x);
  EXPECT_EQ(z.cross(x), y);
}

TEST(Vec3, NormAndNormalized) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  // Zero vector falls back to +x.
  EXPECT_EQ((Vec3{0, 0, 0}).normalized(), (Vec3{1, 0, 0}));
}

TEST(Vec3, IndexingMatchesComponents) {
  Vec3 v{7, 8, 9};
  EXPECT_EQ(v[0], 7.0);
  EXPECT_EQ(v[1], 8.0);
  EXPECT_EQ(v[2], 9.0);
  v[1] = 42;
  EXPECT_EQ(v.y, 42.0);
}

TEST(Vec2, CrossIsSignedArea) {
  const Vec2 a{1, 0}, b{0, 1};
  EXPECT_EQ(a.cross(b), 1.0);
  EXPECT_EQ(b.cross(a), -1.0);
}

TEST(Mat3, IdentityLeavesVectors) {
  const Vec3 v{1, -2, 3};
  EXPECT_EQ(Mat3::identity() * v, v);
}

TEST(Mat3, RotZQuarterTurn) {
  const Mat3 r = Mat3::rot_z(kPi / 2.0);
  const Vec3 v = r * Vec3{1, 0, 0};
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
}

TEST(Mat3, TransposeOfRotationIsInverse) {
  const Mat3 r = Mat3::rot_z(0.7);
  const Vec3 v{1, 2, 3};
  const Vec3 back = r.transposed() * (r * v);
  EXPECT_NEAR(back.x, v.x, 1e-12);
  EXPECT_NEAR(back.y, v.y, 1e-12);
  EXPECT_NEAR(back.z, v.z, 1e-12);
}

TEST(Mat3, MatrixProductComposesRotations) {
  const Mat3 a = Mat3::rot_z(0.3), b = Mat3::rot_z(0.4);
  const Vec3 v{1, 0, 0};
  const Vec3 via_product = (a * b) * v;
  const Vec3 via_sequential = a * (b * v);
  EXPECT_NEAR(via_product.x, via_sequential.x, 1e-12);
  EXPECT_NEAR(via_product.y, via_sequential.y, 1e-12);
}

// --- Quat -------------------------------------------------------------

TEST(Quat, IdentityRotatesNothing) {
  const Vec3 v{1, 2, 3};
  EXPECT_EQ(Quat::identity().rotate(v), v);
}

TEST(Quat, AxisAngleQuarterTurnZ) {
  const Quat q = Quat::from_axis_angle({0, 0, 1}, kPi / 2.0);
  const Vec3 v = q.rotate({1, 0, 0});
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
  EXPECT_NEAR(v.z, 0.0, 1e-12);
}

TEST(Quat, RotationPreservesLength) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 200; ++i) {
    const Quat q = Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform());
    const Vec3 v{rng.uniform(-10, 10), rng.uniform(-10, 10),
                 rng.uniform(-10, 10)};
    EXPECT_NEAR(q.rotate(v).norm(), v.norm(), 1e-9);
  }
}

TEST(Quat, UniformIsUnit) {
  Xoshiro256ss rng(6);
  for (int i = 0; i < 200; ++i) {
    const Quat q = Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform());
    EXPECT_NEAR(q.norm(), 1.0, 1e-12);
  }
}

TEST(Quat, MatrixAgreesWithRotate) {
  Xoshiro256ss rng(8);
  for (int i = 0; i < 100; ++i) {
    const Quat q = Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform());
    const Vec3 v{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec3 a = q.rotate(v);
    const Vec3 b = q.to_matrix() * v;
    EXPECT_NEAR(a.x, b.x, 1e-9);
    EXPECT_NEAR(a.y, b.y, 1e-9);
    EXPECT_NEAR(a.z, b.z, 1e-9);
  }
}

TEST(Quat, ConjugateInvertsRotation) {
  const Quat q = Quat::from_axis_angle({1, 1, 0}, 0.9);
  const Vec3 v{2, -1, 4};
  const Quat conj{q.w, -q.x, -q.y, -q.z};
  const Vec3 back = conj.rotate(q.rotate(v));
  EXPECT_NEAR(back.x, v.x, 1e-9);
  EXPECT_NEAR(back.y, v.y, 1e-9);
  EXPECT_NEAR(back.z, v.z, 1e-9);
}

TEST(Quat, AngleToSelfIsZero) {
  const Quat q = Quat::from_axis_angle({0, 1, 0}, 0.8);
  EXPECT_NEAR(q.angle_to(q), 0.0, 1e-6);
  // q and -q represent the same rotation.
  const Quat nq{-q.w, -q.x, -q.y, -q.z};
  EXPECT_NEAR(q.angle_to(nq), 0.0, 1e-6);
}

TEST(Quat, AngleToMeasuresRotationDifference) {
  const Quat a = Quat::identity();
  const Quat b = Quat::from_axis_angle({0, 0, 1}, 1.0);
  EXPECT_NEAR(a.angle_to(b), 1.0, 1e-9);
}

TEST(Quat, SlerpEndpoints) {
  const Quat a = Quat::identity();
  const Quat b = Quat::from_axis_angle({0, 0, 1}, 1.2);
  EXPECT_NEAR(a.slerp(b, 0.0).angle_to(a), 0.0, 1e-9);
  EXPECT_NEAR(a.slerp(b, 1.0).angle_to(b), 0.0, 1e-9);
}

TEST(Quat, SlerpHalfwayIsHalfAngle) {
  const Quat a = Quat::identity();
  const Quat b = Quat::from_axis_angle({0, 0, 1}, 1.2);
  const Quat mid = a.slerp(b, 0.5);
  EXPECT_NEAR(a.angle_to(mid), 0.6, 1e-9);
  EXPECT_NEAR(mid.angle_to(b), 0.6, 1e-9);
}

TEST(Quat, SlerpTakesShortArc) {
  const Quat a = Quat::from_axis_angle({0, 0, 1}, 0.1);
  Quat b = Quat::from_axis_angle({0, 0, 1}, 0.4);
  b = {-b.w, -b.x, -b.y, -b.z};  // same rotation, antipodal representation
  const Quat mid = a.slerp(b, 0.5);
  EXPECT_NEAR(mid.angle_to(Quat::from_axis_angle({0, 0, 1}, 0.25)), 0.0,
              1e-9);
}

// --- Transform ----------------------------------------------------------

TEST(Transform, ApplyRotatesThenTranslates) {
  const Transform t{Quat::from_axis_angle({0, 0, 1}, kPi / 2.0), {10, 0, 0}};
  const Vec3 p = t.apply(Vec3{1, 0, 0});
  EXPECT_NEAR(p.x, 10.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
}

TEST(Transform, CompositionAssociativity) {
  const Transform a{Quat::from_axis_angle({0, 0, 1}, 0.5), {1, 2, 3}};
  const Transform b{Quat::from_axis_angle({1, 0, 0}, 0.3), {-1, 0, 2}};
  const Vec3 p{0.5, 0.25, -0.75};
  const Vec3 via_compose = (a * b).apply(p);
  const Vec3 via_seq = a.apply(b.apply(p));
  EXPECT_NEAR(via_compose.x, via_seq.x, 1e-9);
  EXPECT_NEAR(via_compose.y, via_seq.y, 1e-9);
  EXPECT_NEAR(via_compose.z, via_seq.z, 1e-9);
}

TEST(Transform, PlacedObbBoundsContainCorners) {
  const Transform t{Quat::from_axis_angle({0, 0, 1}, 0.6), {3, 4, 5}};
  const Obb body{{0, 0, 0}, {1, 2, 3}, Mat3::identity()};
  const Obb placed = t.apply(body);
  const Aabb bounds = placed.bounds();
  // All 8 body corners must land inside the reported bounds.
  for (int sx : {-1, 1})
    for (int sy : {-1, 1})
      for (int sz : {-1, 1}) {
        const Vec3 corner = t.apply(Vec3{1.0 * sx, 2.0 * sy, 3.0 * sz});
        EXPECT_TRUE(bounds.expanded(1e-9).contains(corner));
      }
}

// --- Aabb ---------------------------------------------------------------

TEST(Aabb, ContainsAndOverlap) {
  const Aabb a{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(a.contains({1, 1, 1}));
  EXPECT_TRUE(a.contains({0, 0, 0}));  // boundary closed
  EXPECT_FALSE(a.contains({2.1, 1, 1}));
  const Aabb b{{1, 1, 1}, {3, 3, 3}};
  EXPECT_TRUE(a.overlaps(b));
  const Aabb c{{5, 5, 5}, {6, 6, 6}};
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Aabb, VolumeAndSurface) {
  const Aabb a{{0, 0, 0}, {2, 3, 4}};
  EXPECT_DOUBLE_EQ(a.volume(), 24.0);
}

TEST(Aabb, OverlapVolume) {
  const Aabb a{{0, 0, 0}, {2, 2, 2}};
  const Aabb b{{1, 1, 1}, {3, 3, 3}};
  EXPECT_DOUBLE_EQ(a.overlap_volume(b), 1.0);
  EXPECT_DOUBLE_EQ(a.overlap_volume(a), 8.0);
  const Aabb c{{9, 9, 9}, {10, 10, 10}};
  EXPECT_DOUBLE_EQ(a.overlap_volume(c), 0.0);
}

TEST(Aabb, MergeAndEmpty) {
  Aabb e = Aabb::empty();
  e = e.merged({{1, 1, 1}, {2, 2, 2}});
  e = e.merged({{-1, 0, 0}, {0, 1, 1}});
  EXPECT_EQ(e.lo, (Vec3{-1, 0, 0}));
  EXPECT_EQ(e.hi, (Vec3{2, 2, 2}));
}

TEST(Aabb, ClampProjectsInside) {
  const Aabb a{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(a.clamp({2, 0.5, -1}), (Vec3{1, 0.5, 0}));
}

// --- intersection truth table ------------------------------------------

TEST(Intersect, SphereSphere) {
  EXPECT_TRUE(intersects(Sphere{{0, 0, 0}, 1}, Sphere{{1.5, 0, 0}, 1}));
  EXPECT_FALSE(intersects(Sphere{{0, 0, 0}, 1}, Sphere{{2.5, 0, 0}, 1}));
  // Tangent counts as touching.
  EXPECT_TRUE(intersects(Sphere{{0, 0, 0}, 1}, Sphere{{2, 0, 0}, 1}));
}

TEST(Intersect, SphereAabb) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(intersects(Sphere{{0.5, 0.5, 0.5}, 0.1}, box));  // inside
  EXPECT_TRUE(intersects(Sphere{{1.5, 0.5, 0.5}, 0.6}, box));  // face
  EXPECT_FALSE(intersects(Sphere{{2.0, 2.0, 2.0}, 0.5}, box));
  // Corner proximity: distance to corner (1,1,1) from (1.5,1.5,1.5) is
  // sqrt(0.75) ~ 0.866.
  EXPECT_TRUE(intersects(Sphere{{1.5, 1.5, 1.5}, 0.9}, box));
  EXPECT_FALSE(intersects(Sphere{{1.5, 1.5, 1.5}, 0.8}, box));
}

TEST(Intersect, ObbObbAxisAligned) {
  const Obb a{{0, 0, 0}, {1, 1, 1}, Mat3::identity()};
  const Obb b{{1.5, 0, 0}, {1, 1, 1}, Mat3::identity()};
  const Obb c{{3.5, 0, 0}, {1, 1, 1}, Mat3::identity()};
  EXPECT_TRUE(intersects(a, b));
  EXPECT_FALSE(intersects(a, c));
}

TEST(Intersect, ObbObbRotatedCorners) {
  // A unit cube rotated 45 deg about z reaches sqrt(2) along x.
  const Obb a{{0, 0, 0}, {1, 1, 1}, Mat3::rot_z(kPi / 4.0)};
  const Obb far_box{{2.45, 0, 0}, {1, 1, 1}, Mat3::identity()};
  const Obb near_box{{2.35, 0, 0}, {1, 1, 1}, Mat3::identity()};
  EXPECT_FALSE(intersects(a, far_box));
  EXPECT_TRUE(intersects(a, near_box));
}

TEST(Intersect, ObbObbMatchesSampledGroundTruth) {
  // Property: SAT result agrees with a dense point-sampling containment
  // check whenever the sampling finds an intersection witness.
  Xoshiro256ss rng(21);
  int checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Obb a{{0, 0, 0},
                {rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2),
                 rng.uniform(0.4, 1.2)},
                Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform())
                    .to_matrix()};
    const Obb b{{rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)},
                {rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2),
                 rng.uniform(0.4, 1.2)},
                Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform())
                    .to_matrix()};
    // Sample points of b; if any is inside a, SAT must report hit.
    bool witness = false;
    for (int i = 0; i < 300 && !witness; ++i) {
      const Vec3 local{rng.uniform(-b.half.x, b.half.x),
                       rng.uniform(-b.half.y, b.half.y),
                       rng.uniform(-b.half.z, b.half.z)};
      const Vec3 world = b.rot * local + b.center;
      witness = a.contains(world);
    }
    if (witness) {
      EXPECT_TRUE(intersects(a, b)) << "trial " << trial;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);  // the sweep actually exercised hits
}

TEST(Intersect, SegmentAabb) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(intersects(Segment{{-1, 0.5, 0.5}, {2, 0.5, 0.5}}, box));
  EXPECT_FALSE(intersects(Segment{{-1, 2, 2}, {2, 2, 2}}, box));
  // Segment ending before the box.
  EXPECT_FALSE(intersects(Segment{{-2, 0.5, 0.5}, {-1, 0.5, 0.5}}, box));
  // Fully inside.
  EXPECT_TRUE(intersects(Segment{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}}, box));
  // Degenerate segment = point.
  EXPECT_TRUE(intersects(Segment{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, box));
}

TEST(Intersect, SegmentObbRotated) {
  const Obb box{{0, 0, 0}, {1, 0.1, 1}, Mat3::rot_z(kPi / 4.0)};
  // A vertical segment through the origin must hit the thin rotated slab.
  EXPECT_TRUE(intersects(Segment{{0, -2, 0}, {0, 2, 0}}, box));
  // Far away parallel segment misses.
  EXPECT_FALSE(intersects(Segment{{3, -2, 0}, {3, 2, 0}}, box));
}

TEST(Intersect, SegmentSphere) {
  const Sphere s{{0, 0, 0}, 1};
  EXPECT_TRUE(intersects(Segment{{-2, 0, 0}, {2, 0, 0}}, s));
  EXPECT_FALSE(intersects(Segment{{-2, 2, 0}, {2, 2, 0}}, s));
  EXPECT_TRUE(intersects(Segment{{-2, 0.99, 0}, {2, 0.99, 0}}, s));
}

TEST(Intersect, RayAabbEntryDistance) {
  const Aabb box{{1, -1, -1}, {2, 1, 1}};
  const auto t = ray_hit(Ray{{0, 0, 0}, {1, 0, 0}}, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
  EXPECT_FALSE(ray_hit(Ray{{0, 0, 0}, {-1, 0, 0}}, box).has_value());
}

TEST(Intersect, RayFromInsideHitsAtZero) {
  const Aabb box{{-1, -1, -1}, {1, 1, 1}};
  const auto t = ray_hit(Ray{{0, 0, 0}, {1, 0, 0}}, box);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.0);
}

TEST(Intersect, RaySphere) {
  const Sphere s{{5, 0, 0}, 1};
  const auto t = ray_hit(Ray{{0, 0, 0}, {1, 0, 0}}, s);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 4.0, 1e-12);
  EXPECT_FALSE(ray_hit(Ray{{0, 0, 0}, {0, 1, 0}}, s).has_value());
}

TEST(Intersect, RayObb) {
  const Obb box{{5, 0, 0}, {1, 1, 1}, Mat3::rot_z(kPi / 4.0)};
  const auto t = ray_hit(Ray{{0, 0, 0}, {1, 0, 0}}, box);
  ASSERT_TRUE(t.has_value());
  // Rotated cube's near corner along x is at 5 - sqrt(2).
  EXPECT_NEAR(*t, 5.0 - std::sqrt(2.0), 1e-9);
}

TEST(Intersect, RayTriangleMollerTrumbore) {
  const Triangle tri{{Vec3{0, 0, 1}, Vec3{1, 0, 1}, Vec3{0, 1, 1}}};
  const auto hit = ray_hit(Ray{{0.2, 0.2, 0}, {0, 0, 1}}, tri);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(*hit, 1.0, 1e-12);
  EXPECT_FALSE(ray_hit(Ray{{0.9, 0.9, 0}, {0, 0, 1}}, tri).has_value());
  // Parallel ray misses.
  EXPECT_FALSE(ray_hit(Ray{{0, 0, 0}, {1, 0, 0}}, tri).has_value());
}

TEST(Intersect, Distance2ToAabb) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(distance2({0.5, 0.5, 0.5}, box), 0.0);
  EXPECT_DOUBLE_EQ(distance2({2, 0.5, 0.5}, box), 1.0);
  EXPECT_DOUBLE_EQ(distance2({2, 2, 2}, box), 3.0);
}

TEST(Intersect, ClosestPointOnSegment) {
  const Segment s{{0, 0, 0}, {10, 0, 0}};
  EXPECT_EQ(closest_point(s, {5, 3, 0}), (Vec3{5, 0, 0}));
  EXPECT_EQ(closest_point(s, {-5, 0, 0}), (Vec3{0, 0, 0}));
  EXPECT_EQ(closest_point(s, {15, 0, 0}), (Vec3{10, 0, 0}));
}

// --- morton -------------------------------------------------------------

TEST(Morton, SpreadIsReversibleByMask) {
  // morton3 of axis-aligned unit steps produces distinct interleaved bits.
  EXPECT_EQ(morton3(1, 0, 0), 1u);
  EXPECT_EQ(morton3(0, 1, 0), 2u);
  EXPECT_EQ(morton3(0, 0, 1), 4u);
  EXPECT_EQ(morton3(1, 1, 1), 7u);
}

TEST(Morton, KeyPreservesLocalityOrdering) {
  const Aabb bounds{{0, 0, 0}, {100, 100, 100}};
  const auto near_origin = morton_key({1, 1, 1}, bounds);
  const auto far_corner = morton_key({99, 99, 99}, bounds);
  EXPECT_LT(near_origin, far_corner);
}

TEST(Morton, KeyClampsOutOfBounds) {
  const Aabb bounds{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(morton_key({-5, -5, -5}, bounds), morton_key({0, 0, 0}, bounds));
  EXPECT_EQ(morton_key({5, 5, 5}, bounds), morton_key({1, 1, 1}, bounds));
}

TEST(Morton, DistinctCellsDistinctKeys) {
  const Aabb bounds{{0, 0, 0}, {8, 8, 8}};
  std::set<std::uint64_t> keys;
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y)
      for (int z = 0; z < 8; ++z)
        keys.insert(morton_key({x + 0.5, y + 0.5, z + 0.5}, bounds));
  EXPECT_EQ(keys.size(), 512u);
}

}  // namespace
}  // namespace pmpl::geo
