// RRT-Connect and wavefront-extension guarantees:
//  - the bidirectional planner returns valid paths with correct endpoints
//    and keeps the bridged forest a tree (V - 1 edges, regions 0/1);
//  - a single-target wave is bit-identical to the classic extend loop;
//  - fixed-seed trees and their paths are pinned by golden FNV-1a hashes
//    (width 1 and a wavefront width), and trees are identical at every
//    SIMD dispatch level on every space kind.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "env/builders.hpp"
#include "env/environment.hpp"
#include "geometry/simd.hpp"
#include "planner/query.hpp"
#include "planner/rrt.hpp"
#include "planner/rrt_connect.hpp"
#include "util/rng.hpp"

namespace pmpl {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t path_hash(const std::vector<cspace::Config>& path) {
  std::uint64_t h = 14695981039346656037ull;
  const std::uint64_t n = path.size();
  h = fnv1a(h, &n, sizeof n);
  for (const auto& c : path) {
    const std::uint64_t sz = c.size();
    h = fnv1a(h, &sz, sizeof sz);
    for (std::size_t i = 0; i < c.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &c[i], sizeof bits);
      h = fnv1a(h, &bits, sizeof bits);
    }
  }
  return h;
}

std::uint64_t roadmap_hash(const planner::Roadmap& g) {
  std::uint64_t h = 14695981039346656037ull;
  const std::uint64_t nv = g.num_vertices();
  h = fnv1a(h, &nv, sizeof nv);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& vert = g.vertex(v);
    h = fnv1a(h, &vert.region, sizeof vert.region);
    const std::uint64_t sz = vert.cfg.size();
    h = fnv1a(h, &sz, sizeof sz);
    for (std::size_t i = 0; i < vert.cfg.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &vert.cfg[i], sizeof bits);
      h = fnv1a(h, &bits, sizeof bits);
    }
  }
  const std::uint64_t ne = g.num_edges();
  h = fnv1a(h, &ne, sizeof ne);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : g.edges_of(v)) {
      h = fnv1a(h, &e.to, sizeof e.to);
      std::uint64_t bits;
      std::memcpy(&bits, &e.prop.length, sizeof bits);
      h = fnv1a(h, &bits, sizeof bits);
    }
  }
  return h;
}

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

std::pair<cspace::Config, cspace::Config> corner_query(
    const env::Environment& e, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return {e.space().at_position({8, 8, 8}, rng),
          e.space().at_position({92, 92, 92}, rng)};
}

// --- planner behavior ------------------------------------------------------

TEST(RrtConnect, FindsValidPathAcrossTheObstacle) {
  const auto e = env::med_cube();
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    planner::RrtConnectParams params;
    params.batch_width = width;
    planner::RrtConnect rrtc(*e, params);
    const auto [start, goal] = corner_query(*e, 18);
    const auto path = rrtc.plan(start, goal, 42);
    ASSERT_TRUE(path.has_value()) << "width=" << width;
    ASSERT_GE(path->size(), 2u);
    EXPECT_EQ(path->front(), start) << "width=" << width;
    EXPECT_EQ(path->back(), goal) << "width=" << width;
    EXPECT_TRUE(planner::path_valid(*e, *path, 1.0)) << "width=" << width;
  }
}

TEST(RrtConnect, BridgedForestIsATreeWithBothRegions) {
  const auto e = env::med_cube();
  planner::RrtConnectParams params;
  params.batch_width = 4;
  planner::RrtConnect rrtc(*e, params);
  const auto [start, goal] = corner_query(*e, 19);
  const auto path = rrtc.plan(start, goal, 7);
  ASSERT_TRUE(path.has_value());

  const auto& g = rrtc.tree();
  // Two trees (V-2 edges) plus exactly one bridge.
  EXPECT_EQ(g.num_edges(), g.num_vertices() - 1);
  bool saw_region[2] = {false, false};
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(g.vertex(v).region, 2u);
    saw_region[g.vertex(v).region] = true;
  }
  EXPECT_TRUE(saw_region[0]);
  EXPECT_TRUE(saw_region[1]);
  // Roots: vertex 0 is the start tree's, vertex 1 the goal tree's.
  EXPECT_EQ(g.vertex(0).region, 0u);
  EXPECT_EQ(g.vertex(1).region, 1u);
}

TEST(RrtConnect, DeterministicForFixedSeedAndWidth) {
  const auto e = env::med_cube();
  for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    planner::RrtConnectParams params;
    params.batch_width = width;
    const auto [start, goal] = corner_query(*e, 20);
    planner::RrtConnect a(*e, params);
    planner::RrtConnect b(*e, params);
    (void)a.plan(start, goal, 5);
    (void)b.plan(start, goal, 5);
    EXPECT_EQ(roadmap_hash(a.tree()), roadmap_hash(b.tree()))
        << "width=" << width;
  }
}

// --- wavefront extension ----------------------------------------------------

TEST(RrtConnect, SingleTargetWaveMatchesClassicExtend) {
  const auto e = env::med_cube();
  planner::RrtParams params;
  Xoshiro256ss rng(21);
  const cspace::Config root = e->space().at_position({50, 20, 50}, rng);

  planner::Roadmap classic_tree, wave_tree;
  planner::PlannerStats classic_stats, wave_stats;
  planner::RrtBranch classic(*e, classic_tree, root, 0, params);
  planner::RrtBranch wave(*e, wave_tree, root, 0, params);

  for (int i = 0; i < 400; ++i) {
    const cspace::Config target = e->space().sample(rng);
    classic.extend(target, classic_stats);
    wave.extend_wave({&target, 1}, wave_stats);
  }
  EXPECT_EQ(roadmap_hash(classic_tree), roadmap_hash(wave_tree));
  EXPECT_EQ(wave_stats.rrt_extends, classic_stats.rrt_extends);
  EXPECT_EQ(wave_stats.rrt_extends_success,
            classic_stats.rrt_extends_success);
  EXPECT_EQ(wave_stats.lp_attempts, classic_stats.lp_attempts);
  EXPECT_EQ(wave_stats.lp_steps, classic_stats.lp_steps);
  EXPECT_EQ(wave_stats.cd.queries, classic_stats.cd.queries);
}

// --- SIMD level equality ----------------------------------------------------

TEST(RrtConnect, TreeHashIdenticalAtEverySimdLevelOnEverySpaceKind) {
  SimdLevelGuard guard;
  const geo::Aabb bounds{{0, 0, 0}, {100, 100, 100}};
  const std::vector<collision::ObstacleShape> obstacles{
      collision::ObstacleShape{geo::Aabb{{40, 40, 40}, {60, 60, 60}}}};
  const collision::RigidBody robot = collision::RigidBody::box({3, 2, 1});

  const auto check = [&](const env::Environment& e, const char* label) {
    std::uint64_t base = 0;
    for (std::size_t li = 0; li < available_levels().size(); ++li) {
      geo::set_simd_level(available_levels()[li]);
      planner::RrtConnectParams params;
      params.batch_width = 8;
      planner::RrtConnect rrtc(e, params);
      const auto [start, goal] = corner_query(e, 22);
      (void)rrtc.plan(start, goal, 9);
      const std::uint64_t h = roadmap_hash(rrtc.tree());
      if (li == 0)
        base = h;
      else
        EXPECT_EQ(h, base) << label << " level="
                           << to_string(available_levels()[li]);
    }
  };

  const env::Environment eucl(
      "eucl", cspace::CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}}),
      std::vector<collision::ObstacleShape>(obstacles), robot);
  const env::Environment se2("se2", cspace::CSpace::se2(bounds),
                             std::vector<collision::ObstacleShape>(obstacles),
                             robot);
  const env::Environment se3("se3", cspace::CSpace::se3(bounds),
                             std::vector<collision::ObstacleShape>(obstacles),
                             robot);
  check(eucl, "euclidean");
  check(se2, "se2");
  check(se3, "se3");
}

// --- golden tree hashes -----------------------------------------------------
// Captured from the first implementation; any change to steering, wave
// ordering, validity verdicts, or connect decisions shifts these. The path
// hashes were captured when the path was extracted by Dijkstra over the
// bridged tree; the tree path is unique, so any extraction must match.

TEST(GoldenRrtConnect, ClassicWidthOne) {
  const auto e = env::med_cube();
  planner::RrtConnectParams params;
  params.batch_width = 1;
  planner::RrtConnect rrtc(*e, params);
  const auto [start, goal] = corner_query(*e, 18);
  const auto path = rrtc.plan(start, goal, 42);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(roadmap_hash(rrtc.tree()), 0xa251cd6c847e364eull);
  EXPECT_EQ(path_hash(*path), 0xb6b5e82c8632bbc4ull);
}

TEST(GoldenRrtConnect, WavefrontWidthEight) {
  const auto e = env::med_cube();
  planner::RrtConnectParams params;
  params.batch_width = 8;
  planner::RrtConnect rrtc(*e, params);
  const auto [start, goal] = corner_query(*e, 18);
  const auto path = rrtc.plan(start, goal, 42);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(roadmap_hash(rrtc.tree()), 0x77ba8cb782226c14ull);
  EXPECT_EQ(path_hash(*path), 0x2f6d73092e69efadull);
}

}  // namespace
}  // namespace pmpl
