// Wide (SIMD) validity-kernel guarantees (DESIGN.md §5g):
//  - lane placement and every hit_mask overload are bit-identical to the
//    scalar geo routines at every dispatch level this CPU supports;
//  - the blocked first_collision path returns the same verdict and the
//    same `queries` count as the pre-wide sequential sweep, with work
//    counters identical across dispatch levels;
//  - batched validity (valid_batch / valid_mask / EdgeBatchPlanner / the
//    PRM cross-edge window) is decision- and stats-identical to the
//    sequential reference on every space kind.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "collision/checker.hpp"
#include "cspace/local_planner.hpp"
#include "cspace/validity.hpp"
#include "env/builders.hpp"
#include "geometry/intersect.hpp"
#include "geometry/intersect_wide.hpp"
#include "geometry/pose_block.hpp"
#include "geometry/simd.hpp"
#include "graph/union_find.hpp"
#include "planner/knn.hpp"
#include "planner/prm.hpp"
#include "util/rng.hpp"

namespace pmpl {
namespace {

/// Restores the process-wide dispatch level on scope exit.
struct SimdLevelGuard {
  geo::SimdLevel saved = geo::simd_level();
  ~SimdLevelGuard() { geo::set_simd_level(saved); }
};

std::vector<geo::SimdLevel> available_levels() {
  std::vector<geo::SimdLevel> out{geo::SimdLevel::kScalar};
  if (geo::detected_simd_level() >= geo::SimdLevel::kSse2)
    out.push_back(geo::SimdLevel::kSse2);
  if (geo::detected_simd_level() >= geo::SimdLevel::kAvx2)
    out.push_back(geo::SimdLevel::kAvx2);
  return out;
}

geo::Transform random_pose(Xoshiro256ss& rng, double span) {
  return {geo::Quat::uniform(rng.uniform(), rng.uniform(), rng.uniform()),
          {rng.uniform(-span, span), rng.uniform(-span, span),
           rng.uniform(-span, span)}};
}

bool bits_equal(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

// --- lane placement -------------------------------------------------------

TEST(SimdWide, BoxPlacementBitIdenticalAtEveryLevel) {
  SimdLevelGuard guard;
  const geo::Obb body{{0.5, -0.25, 0.125}, {2.0, 1.0, 0.5},
                      geo::Mat3::identity()};
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    geo::PoseBlock block;
    const std::size_t n = 1 + rng.index(geo::kWideLanes);
    for (std::size_t i = 0; i < n; ++i) block.push(random_pose(rng, 40.0));

    for (const geo::SimdLevel level : available_levels()) {
      geo::set_simd_level(level);
      geo::ObbLanes4 lanes;
      geo::place_box_lanes(block.tx, block.ty, block.tz, block.qw, block.qx,
                           block.qy, block.qz, n, body, lanes);
      for (std::size_t i = 0; i < n; ++i) {
        const geo::Obb ref = block.get(i).apply(body);
        const geo::Obb got = geo::lane_obb(lanes, i);
        EXPECT_TRUE(bits_equal(got.center.x, ref.center.x)) << trial;
        EXPECT_TRUE(bits_equal(got.center.y, ref.center.y)) << trial;
        EXPECT_TRUE(bits_equal(got.center.z, ref.center.z)) << trial;
        for (const auto& [gr, rr] : {std::pair{got.rot.r0, ref.rot.r0},
                                     std::pair{got.rot.r1, ref.rot.r1},
                                     std::pair{got.rot.r2, ref.rot.r2}}) {
          EXPECT_TRUE(bits_equal(gr.x, rr.x)) << trial << " "
                                              << to_string(level);
          EXPECT_TRUE(bits_equal(gr.y, rr.y)) << trial;
          EXPECT_TRUE(bits_equal(gr.z, rr.z)) << trial;
        }
      }
    }
  }
}

TEST(SimdWide, SpherePlacementBitIdenticalAtEveryLevel) {
  SimdLevelGuard guard;
  const geo::Sphere body{{0.75, 0.0, -1.5}, 1.25};
  Xoshiro256ss rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    geo::PoseBlock block;
    const std::size_t n = 1 + rng.index(geo::kWideLanes);
    for (std::size_t i = 0; i < n; ++i) block.push(random_pose(rng, 40.0));

    for (const geo::SimdLevel level : available_levels()) {
      geo::set_simd_level(level);
      geo::SphereLanes4 lanes;
      geo::place_sphere_lanes(block.tx, block.ty, block.tz, block.qw,
                              block.qx, block.qy, block.qz, n, body, lanes);
      for (std::size_t i = 0; i < n; ++i) {
        const geo::Sphere ref = block.get(i).apply(body);
        const geo::Sphere got = geo::lane_sphere(lanes, i);
        EXPECT_TRUE(bits_equal(got.center.x, ref.center.x)) << trial;
        EXPECT_TRUE(bits_equal(got.center.y, ref.center.y)) << trial;
        EXPECT_TRUE(bits_equal(got.center.z, ref.center.z)) << trial;
      }
    }
  }
}

// --- hit masks ------------------------------------------------------------

/// Sweeps poses whose distance to the obstacle crosses the contact
/// boundary, so the mask mixes hits, misses, and near-touching lanes.
TEST(SimdWide, HitMasksMatchScalarIntersects) {
  SimdLevelGuard guard;
  const geo::Obb box_body{{0, 0, 0}, {1.5, 1.0, 0.75},
                          geo::Mat3::identity()};
  const geo::Sphere sphere_body{{0, 0, 0}, 1.0};
  const geo::Aabb aabb_obs{{-2, -2, -2}, {2, 2, 2}};
  const geo::Obb obb_obs = geo::Obb::from_aabb({{-1.5, -2, -1}, {2, 1.5, 2}});
  const geo::Sphere sphere_obs{{0.5, -0.5, 0.25}, 2.0};

  Xoshiro256ss rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    geo::PoseBlock block;
    const std::size_t n = 1 + rng.index(geo::kWideLanes);
    // Mix far, near-boundary, and overlapping placements.
    for (std::size_t i = 0; i < n; ++i) {
      geo::Transform t = random_pose(rng, 1.0);
      const double d = rng.uniform(0.0, 8.0);  // 0 = inside, 8 = clear
      t.translation = t.translation + geo::Vec3{d, d * 0.5, d * 0.25};
      block.push(t);
    }

    std::uint32_t expect_box[3] = {0, 0, 0};
    std::uint32_t expect_sph[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const geo::Obb wb = block.get(i).apply(box_body);
      const geo::Sphere ws = block.get(i).apply(sphere_body);
      if (geo::intersects(wb, aabb_obs)) expect_box[0] |= 1u << i;
      if (geo::intersects(wb, obb_obs)) expect_box[1] |= 1u << i;
      if (geo::intersects(sphere_obs, wb)) expect_box[2] |= 1u << i;
      if (geo::intersects(ws, aabb_obs)) expect_sph[0] |= 1u << i;
      if (geo::intersects(ws, obb_obs)) expect_sph[1] |= 1u << i;
      if (geo::intersects(ws, sphere_obs)) expect_sph[2] |= 1u << i;
    }

    for (const geo::SimdLevel level : available_levels()) {
      geo::set_simd_level(level);
      geo::ObbLanes4 ob;
      geo::SphereLanes4 sp;
      geo::place_box_lanes(block.tx, block.ty, block.tz, block.qw, block.qx,
                           block.qy, block.qz, n, box_body, ob);
      geo::place_sphere_lanes(block.tx, block.ty, block.tz, block.qw,
                              block.qx, block.qy, block.qz, n, sphere_body,
                              sp);
      EXPECT_EQ(geo::hit_mask(ob, n, aabb_obs), expect_box[0])
          << trial << " " << to_string(level);
      EXPECT_EQ(geo::hit_mask(ob, n, obb_obs), expect_box[1])
          << trial << " " << to_string(level);
      EXPECT_EQ(geo::hit_mask(ob, n, sphere_obs), expect_box[2])
          << trial << " " << to_string(level);
      EXPECT_EQ(geo::hit_mask(sp, n, aabb_obs), expect_sph[0])
          << trial << " " << to_string(level);
      EXPECT_EQ(geo::hit_mask(sp, n, obb_obs), expect_sph[1])
          << trial << " " << to_string(level);
      EXPECT_EQ(geo::hit_mask(sp, n, sphere_obs), expect_sph[2])
          << trial << " " << to_string(level);
    }
  }
}

// --- blocked first_collision ----------------------------------------------

TEST(SimdWide, FirstCollisionMatchesSequentialAcrossLevels) {
  SimdLevelGuard guard;
  const auto e = env::med_cube();
  const auto& checker = e->checker();
  const auto& robot = e->robot();
  Xoshiro256ss rng(14);

  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.index(geo::PoseBlock::kCapacity);
    std::vector<geo::Transform> poses;
    geo::PoseBlock block;
    for (std::size_t i = 0; i < n; ++i) {
      geo::Transform t = random_pose(rng, 0.5);
      t.translation = {rng.uniform(20.0, 80.0), rng.uniform(20.0, 80.0),
                       rng.uniform(20.0, 80.0)};
      poses.push_back(t);
      block.push(t);
    }

    collision::CollisionStats seq;
    const std::size_t ref =
        checker.first_collision_sequential(robot, poses, &seq);

    std::size_t base_first = 0;
    collision::CollisionStats base_stats;
    for (std::size_t li = 0; li < available_levels().size(); ++li) {
      geo::set_simd_level(available_levels()[li]);
      collision::CollisionStats bs;
      const std::size_t got = checker.first_collision(robot, block, &bs);
      EXPECT_EQ(got, ref) << trial;  // same verdict as the per-pose sweep
      EXPECT_EQ(bs.queries, seq.queries) << trial;  // verdicts consumed
      if (li == 0) {
        base_first = got;
        base_stats = bs;
      } else {
        // Work counters follow the block contract: they differ from the
        // sequential sweep but are identical at every dispatch level.
        EXPECT_EQ(got, base_first);
        EXPECT_EQ(bs.narrow_tests, base_stats.narrow_tests) << trial;
        EXPECT_EQ(bs.bvh_nodes, base_stats.bvh_nodes) << trial;
      }
    }

    // The span overload chunks into the same blocks.
    collision::CollisionStats span_stats;
    EXPECT_EQ(checker.first_collision(robot, poses, &span_stats), ref);
    EXPECT_EQ(span_stats.queries, seq.queries);

    // collision_mask agrees with per-pose in_collision on every bit.
    std::uint32_t expect_mask = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (checker.in_collision(robot, poses[i])) expect_mask |= 1u << i;
    EXPECT_EQ(checker.collision_mask(robot, block), expect_mask) << trial;
  }
}

// --- batched validity across space kinds ----------------------------------

TEST(SimdWide, ValidBatchMatchesSequentialOnEverySpaceKind) {
  SimdLevelGuard guard;
  const std::vector<collision::ObstacleShape> obstacles{
      collision::ObstacleShape{geo::Aabb{{40, 40, 40}, {60, 60, 60}}},
      collision::ObstacleShape{geo::Sphere{{20, 70, 30}, 8.0}}};
  const collision::CollisionChecker checker{
      std::vector<collision::ObstacleShape>(obstacles)};
  const collision::RigidBody robot = collision::RigidBody::box({3, 2, 1});

  const geo::Aabb bounds{{0, 0, 0}, {100, 100, 100}};
  const std::vector<cspace::CSpace> spaces{
      cspace::CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}}),
      cspace::CSpace::se2(bounds),
      cspace::CSpace::se3(bounds)};

  for (const auto& space : spaces) {
    const cspace::RigidBodyValidity validity(space, robot, checker);
    Xoshiro256ss rng(15);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<cspace::Config> cs;
      const std::size_t n = 1 + rng.index(24);
      for (std::size_t i = 0; i < n; ++i) cs.push_back(space.sample(rng));

      // Sequential reference: valid() per config, stop at first failure.
      std::size_t ref = cs.size();
      for (std::size_t i = 0; i < cs.size(); ++i)
        if (!validity.valid(cs[i])) {
          ref = i;
          break;
        }
      std::uint32_t ref_mask = 0;
      for (std::size_t i = 0; i < cs.size(); ++i)
        if (validity.valid(cs[i])) ref_mask |= 1u << i;

      for (const geo::SimdLevel level : available_levels()) {
        geo::set_simd_level(level);
        EXPECT_EQ(validity.valid_batch(cs), ref)
            << trial << " kind=" << static_cast<int>(space.kind());
        EXPECT_EQ(validity.valid_mask(cs), ref_mask)
            << trial << " kind=" << static_cast<int>(space.kind());
      }
    }
  }
}

// --- ValidityStats regression ---------------------------------------------

/// Pins the ValidityStats contract: checks = verdicts consumed, hits =
/// batches terminated early — identical on the sequential default, the
/// wide batch path, and at every dispatch level, because verdicts are.
TEST(SimdWide, ValidityStatsIdenticalOnEveryPath) {
  SimdLevelGuard guard;
  const auto e = env::med_cube();
  const auto& validity = e->validity();
  const auto& space = e->space();

  Xoshiro256ss rng(16);
  cspace::ValidityStats expected;  // computed from per-config valid()
  std::vector<std::vector<cspace::Config>> batches;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<cspace::Config> cs;
    const std::size_t n = 1 + rng.index(20);
    for (std::size_t i = 0; i < n; ++i) cs.push_back(space.sample(rng));
    std::size_t first = cs.size();
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (!validity.valid(cs[i])) {
        first = i;
        break;
      }
    if (first < cs.size()) {
      expected.checks += first + 1;
      expected.hits += 1;
    } else {
      expected.checks += cs.size();
    }
    batches.push_back(std::move(cs));
  }
  ASSERT_GT(expected.hits, 0u);  // the sweep must exercise early exits

  for (const geo::SimdLevel level : available_levels()) {
    geo::set_simd_level(level);
    cspace::ValidityStats vs;
    for (const auto& cs : batches) validity.valid_batch_counted(cs, vs);
    EXPECT_EQ(vs.checks, expected.checks) << to_string(level);
    EXPECT_EQ(vs.hits, expected.hits) << to_string(level);
  }
}

// --- EdgeBatchPlanner ------------------------------------------------------

TEST(SimdWide, EdgeBatchPlannerMatchesLocalPlannerPerEdge) {
  const auto e = env::med_cube();
  const auto& space = e->space();
  const cspace::LocalPlanner lp(space, e->validity(), 1.0);
  cspace::EdgeBatchPlanner ebp(space, e->validity(), 1.0, 8);

  Xoshiro256ss rng(17);
  std::vector<std::pair<cspace::Config, cspace::Config>> edges;
  for (int i = 0; i < 64; ++i) {
    cspace::Config a = space.sample(rng);
    cspace::Config b = space.sample(rng);
    // Mix long edges with short ones (n <= 1 fast path).
    if (i % 5 == 0) b = space.interpolate(a, b, 0.01);
    edges.emplace_back(std::move(a), std::move(b));
  }

  // Reference results, one isolated plan per edge.
  std::vector<cspace::LocalPlanResult> ref;
  for (const auto& [a, b] : edges) ref.push_back(lp.plan(a, b));

  // Windowed: keep the window full, drain FIFO; outcomes must match the
  // per-edge reference bit for bit regardless of what shares the window.
  std::size_t next_admit = 0, committed = 0;
  while (committed < edges.size()) {
    while (next_admit < edges.size() && ebp.can_admit()) {
      ebp.admit(edges[next_admit].first, edges[next_admit].second,
                next_admit);
      ++next_admit;
    }
    const auto out = ebp.next();
    ASSERT_EQ(out.tag, committed);  // FIFO
    EXPECT_EQ(out.result.success, ref[out.tag].success) << out.tag;
    EXPECT_EQ(out.result.steps_checked, ref[out.tag].steps_checked)
        << out.tag;
    EXPECT_TRUE(bits_equal(out.result.length, ref[out.tag].length))
        << out.tag;
    ++committed;
  }
}

// --- PRM cross-edge window -------------------------------------------------

TEST(SimdWide, PrmBatchedEdgesBitIdenticalToSequential) {
  const auto e = env::med_cube();
  const planner::PrmParams params;

  planner::Prm bat(*e, params);
  bat.build(1200, 99);

  // The reference: the same samples connected one LocalPlanner::plan per
  // candidate, in candidate order, with no window.
  planner::Roadmap seq;
  planner::PlannerStats seq_stats;
  Xoshiro256ss rng(99);
  const auto samples = planner::sample_region(
      *e, e->space().position_bounds(), 1200, rng, seq_stats);
  std::vector<graph::VertexId> ids;
  for (const auto& c : samples) ids.push_back(seq.add_vertex({c, 0}));
  planner::BruteForceKnn finder(e->space());
  for (const graph::VertexId id : ids) finder.insert(id, seq.vertex(id).cfg);
  graph::UnionFind cc(seq.num_vertices());
  const cspace::LocalPlanner lp(e->space(), e->validity(), params.resolution);
  for (const graph::VertexId id : ids) {
    for (const planner::Neighbor& n : finder.nearest(
             seq.vertex(id).cfg, params.k_neighbors + 1, &seq_stats)) {
      if (n.id == id || seq.has_edge(id, n.id) || cc.connected(id, n.id))
        continue;
      ++seq_stats.lp_attempts;
      const auto r =
          lp.plan(seq.vertex(id).cfg, seq.vertex(n.id).cfg, &seq_stats.cd);
      seq_stats.lp_steps += r.steps_checked;
      if (r.success) {
        ++seq_stats.lp_success;
        seq.add_edge(id, n.id, {r.length});
        cc.unite(id, n.id);
      }
    }
  }

  ASSERT_EQ(bat.roadmap().num_vertices(), seq.num_vertices());
  ASSERT_EQ(bat.roadmap().num_edges(), seq.num_edges());
  for (graph::VertexId v = 0; v < seq.num_vertices(); ++v) {
    const auto& es = seq.edges_of(v);
    const auto& eb = bat.roadmap().edges_of(v);
    ASSERT_EQ(es.size(), eb.size()) << v;
    for (std::size_t i = 0; i < es.size(); ++i) {
      EXPECT_EQ(es[i].to, eb[i].to) << v;
      EXPECT_TRUE(bits_equal(es[i].prop.length, eb[i].prop.length)) << v;
    }
  }
  // The full planner-stats contract: identical semantic counters.
  EXPECT_EQ(bat.stats().cd.queries, seq_stats.cd.queries);
  EXPECT_EQ(bat.stats().lp_attempts, seq_stats.lp_attempts);
  EXPECT_EQ(bat.stats().lp_success, seq_stats.lp_success);
  EXPECT_EQ(bat.stats().lp_steps, seq_stats.lp_steps);
  EXPECT_EQ(bat.stats().samples_valid, seq_stats.samples_valid);
}

}  // namespace
}  // namespace pmpl
