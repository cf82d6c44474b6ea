// Hot-path kernel guarantees:
//  - fixed-seed roadmaps are bit-identical to hashes captured from the
//    pre-overhaul kernels (recursive AoS kd-tree, sequential local planner,
//    std::function BVH traversal) — the overhaul may only change speed;
//  - nearest() and plan() perform zero heap allocations once warm, a warm
//    guided A* allocates only the path it returns, and a scheduler steal
//    performs none at all, verified through a global operator new
//    replacement local to this binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "core/parallel_build.hpp"
#include "core/parallel_build_rrt.hpp"
#include "core/radial_regions.hpp"
#include "core/region_grid.hpp"
#include "cspace/local_planner.hpp"
#include "env/builders.hpp"
#include "planner/knn.hpp"
#include "planner/landmarks.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "planner/rrt.hpp"
#include "runtime/scheduler.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

// --- allocation counting hook ---------------------------------------------
// Replaces the replaceable global allocation functions for this test binary
// only. The counter is the observable; tests snapshot it around a measured
// region that must not allocate.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pmpl {
namespace {

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// --- zero-allocation guarantees -------------------------------------------

TEST(HotPathAllocations, KdTreeNearestIsAllocationFreeOnceWarm) {
  const cspace::CSpace space =
      cspace::CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(51);
  planner::KdTreeKnn tree(space);
  for (int i = 0; i < 3000; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));

  std::vector<cspace::Config> queries;
  for (int q = 0; q < 200; ++q) queries.push_back(space.sample(rng));

  // Warmup: triggers the lazy rebuild (the insert burst leaves ~500 points
  // buffered) and sizes the query scratch, the finder's own and the
  // caller-owned one of the const path.
  planner::PlannerStats stats;
  planner::KnnScratch scratch;
  const planner::KdTreeKnn& frozen = tree;
  for (int q = 0; q < 50; ++q) {
    tree.nearest(queries[q % 200], 6, &stats);
    frozen.nearest(queries[q % 200], 6, scratch, &stats);
  }

  const std::uint64_t before = allocation_count();
  double checksum = 0.0;
  for (const auto& q : queries) {
    checksum += tree.nearest(q, 6, &stats).front().distance;
    checksum += frozen.nearest(q, 6, scratch, &stats).front().distance;
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "checksum=" << checksum;
}

TEST(HotPathAllocations, LocalPlanIsAllocationFreeOnceWarm) {
  const auto e = env::med_cube();
  const cspace::LocalPlanner lp(e->space(), e->validity(), 1.0);
  Xoshiro256ss rng(52);

  std::vector<std::pair<cspace::Config, cspace::Config>> edges;
  while (edges.size() < 40) {
    cspace::Config a = e->space().sample(rng);
    cspace::Config b = e->space().sample(rng);
    if (e->validity().valid(a) && e->validity().valid(b))
      edges.emplace_back(std::move(a), std::move(b));
  }

  // Warmup sizes the per-edge scratch (step ordering, config blocks) to
  // the longest edge in the set.
  collision::CollisionStats stats;
  for (const auto& [a, b] : edges) lp.plan(a, b, &stats);

  const std::uint64_t before = allocation_count();
  std::size_t accepted = 0;
  for (const auto& [a, b] : edges) accepted += lp.plan(a, b, &stats).success;
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "accepted=" << accepted;
}

TEST(HotPathAllocations, GuidedSearchAllocatesOnlyItsPath) {
  // A 12 x 12 unit lattice and a 3-vertex island: two components.
  const auto e = env::maze_2d();
  constexpr int kSide = 12;
  planner::Roadmap g;
  for (int y = 0; y < kSide; ++y)
    for (int x = 0; x < kSide; ++x)
      g.add_vertex({cspace::Config{1.0 + x, 1.0 + y, 0.0}, 0});
  for (int y = 0; y < kSide; ++y)
    for (int x = 0; x < kSide; ++x) {
      const auto v = static_cast<graph::VertexId>(y * kSide + x);
      if (x + 1 < kSide) g.add_edge(v, v + 1, {1.0});
      if (y + 1 < kSide) g.add_edge(v, v + kSide, {1.0});
    }
  const graph::VertexId island = g.add_vertex({cspace::Config{15, 15, 0}, 0});
  g.add_vertex({cspace::Config{16, 15, 0}, 0});
  g.add_vertex({cspace::Config{17, 15, 0}, 0});
  g.add_edge(island, island + 1, {1.0});
  g.add_edge(island + 1, island + 2, {1.0});
  const planner::LandmarkTable table(g);
  ASSERT_EQ(table.num_components(), 2u);

  const cspace::Config start{1, 1, 0}, goal{12, 12, 0};
  const std::vector<planner::AttachEdge> se{{0, 0.0}};
  const auto many = [&] {  // 40 into the lattice, 3 into the island
    std::vector<planner::AttachEdge> out;
    for (graph::VertexId v = 0; v < 40; ++v) out.push_back({143 - v, 1.0 + v});
    for (graph::VertexId v = island; v < island + 3; ++v)
      out.push_back({v, 4.0});
    return out;
  }();
  const std::vector<planner::AttachEdge> few{{143, 0.0}};

  // Warm-up sizes the scratch: per-vertex records, heap, goal rows.
  planner::SearchScratch scratch;
  for (const auto* ge : {&many, &few})
    ASSERT_TRUE(planner::find_path_with_attachments(*e, g, start, goal, se,
                                                    *ge, &table, &scratch));
  for (const auto* ge : {&many, &few}) {
    const std::uint64_t before = allocation_count();
    const auto path = planner::find_path_with_attachments(
        *e, g, start, goal, se, *ge, &table, &scratch);
    const std::uint64_t after = allocation_count();
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(after - before, 1u) << "the path's one buffer, and nothing more";
  }
}

TEST(HotPathAllocations, SchedulerStealIsAllocationFree) {
  runtime::Scheduler sched(2);
  constexpr int kTasks = 48;  // fits the deques' initial 64 slots: no grow
  std::atomic<int> ran{0};
  std::uint64_t during_steals = ~0ull;
  runtime::TaskGroup group;
  // One worker fills its own deque, then spins without running any of it,
  // so the other worker can only steal (in batches) and run what it stole.
  sched.submit([&] {
    for (int i = 0; i < kTasks; ++i) sched.submit([&] { ++ran; }, group);
    const std::uint64_t before = allocation_count();
    while (ran.load() < kTasks) std::this_thread::yield();
    during_steals = allocation_count() - before;
  }, group);
  sched.wait(group);
  EXPECT_EQ(during_steals, 0u);
  std::uint64_t stolen = 0;
  for (const auto& c : sched.counters()) stolen += c.executed_stolen;
  EXPECT_GE(stolen, 1u);
}

// --- golden roadmap hashes ------------------------------------------------
// Captured from the pre-overhaul kernels at fixed seeds. Any change to
// sampling, k-NN results (including tie order), interpolation bits, or edge
// accept/reject decisions shifts these hashes.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
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

TEST(GoldenRoadmaps, SequentialPrm) {
  const auto e = env::med_cube();
  planner::Prm prm(*e);
  prm.build(3000, 42);
  EXPECT_EQ(prm.roadmap().num_vertices(), 1378u);
  EXPECT_EQ(prm.roadmap().num_edges(), 1377u);
  EXPECT_EQ(roadmap_hash(prm.roadmap()), 0x2a003482c181ac78ull);
}

TEST(GoldenRoadmaps, SequentialRrt) {
  const auto e = env::med_cube();
  planner::Roadmap tree;
  Xoshiro256ss rootrng(5);
  cspace::Config root;
  do {
    root = e->space().sample(rootrng);
  } while (!e->validity().valid(root));
  planner::RrtBranch branch(*e, tree, root, 0, {});
  planner::PlannerStats stats;
  Xoshiro256ss rng(6);
  branch.grow([&](Xoshiro256ss& r) { return e->space().sample(r); }, rng,
              stats);
  EXPECT_EQ(tree.num_vertices(), 1000u);
  EXPECT_EQ(tree.num_edges(), 999u);
  EXPECT_EQ(roadmap_hash(tree), 0xa35ba8f2332d98adull);
}

TEST(GoldenRoadmaps, ParallelPrm) {
  const auto e = env::med_cube();
  const auto grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 64, false);
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 16384;
  cfg.workers = 4;
  cfg.seed = 7;
  const auto r = core::parallel_build_prm(*e, grid, cfg);
  EXPECT_EQ(r.roadmap.num_vertices(), 7556u);
  EXPECT_EQ(r.roadmap.num_edges(), 9099u);
  EXPECT_EQ(roadmap_hash(r.roadmap), 0x55df7ded490c23d4ull);
}

TEST(GoldenRoadmaps, ParallelRrt) {
  const auto e = env::mixed(0.30);
  const core::RadialRegions regions({50, 50, 50}, 45.0, 64, 4, 81, false);
  Xoshiro256ss rng(82);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  core::ParallelRrtConfig cfg;
  cfg.workers = 4;
  cfg.seed = 83;
  const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
  EXPECT_EQ(r.roadmap.num_vertices(), 7979u);
  EXPECT_EQ(r.roadmap.num_edges(), 7978u);
  EXPECT_EQ(roadmap_hash(r.roadmap), 0xdbc4008db5993100ull);
}

// Incremental densification: two epochs connected into the whole graph
// through the cross-edge window, captured while densify_and_publish still
// had its own connection loop. The planner counters ride in the hash, so a
// change to which candidate edges are planned (not only to which are kept)
// moves it.
TEST(GoldenRoadmaps, Densify) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.resolution = 0.5;
  service::SnapshotPool pool;
  planner::PlannerStats stats;
  service::densify_and_publish(pool, *e, params, 800, 61, &stats);
  service::densify_and_publish(pool, *e, params, 800, 62, &stats);
  const auto snap = pool.acquire();
  ASSERT_TRUE(snap);
  std::uint64_t h = roadmap_hash(snap->roadmap);
  for (const std::uint64_t v : {stats.lp_attempts, stats.lp_success,
                                stats.lp_steps, stats.cd.queries})
    h = fnv1a(h, &v, sizeof v);
  EXPECT_EQ(snap->roadmap.num_vertices(), 734u);
  EXPECT_EQ(snap->roadmap.num_edges(), 3041u);
  EXPECT_EQ(h, 0x83637c576eb1ca99ull);
}

}  // namespace
}  // namespace pmpl
