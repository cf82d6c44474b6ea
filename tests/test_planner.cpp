// Tests for planner/: k-NN structures, sequential PRM, sequential RRT,
// roadmap queries, landmark-guided A*.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "env/builders.hpp"
#include "graph/tree_utils.hpp"
#include "planner/knn.hpp"
#include "planner/landmarks.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "planner/rrt.hpp"
#include "util/rng.hpp"

namespace pmpl::planner {
namespace {

using cspace::Config;
using cspace::CSpace;

// --- k-NN --------------------------------------------------------------

class KnnProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(KnnProperty, KdTreeMatchesBruteForce) {
  const auto [n, seed] = GetParam();
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(seed);
  KdTreeKnn tree(space);
  BruteForceKnn brute(space);
  for (int i = 0; i < n; ++i) {
    const Config c = space.sample(rng);
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  KnnScratch scratch;
  for (int q = 0; q < 25; ++q) {
    const Config query = space.sample(rng);
    for (const std::size_t k : {1u, 4u, 8u}) {
      // The const query first: on the first query it still scans the
      // insertion buffer that the mutable query then folds into the tree.
      auto c = std::as_const(tree).nearest(query, k, scratch);
      auto a = tree.nearest(query, k);
      auto b = brute.nearest(query, k);
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(c.size(), b.size());
      // Canonical order (distance, id) makes results bit-identical, not
      // merely close: every finder and query path must agree exactly.
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
        EXPECT_EQ(a[i].distance, b[i].distance)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
        EXPECT_EQ(c[i].id, b[i].id)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
        EXPECT_EQ(c[i].distance, b[i].distance)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, KnnProperty,
    ::testing::Combine(::testing::Values(1, 5, 33, 128, 500),
                       ::testing::Values(1u, 7u, 99u)));

TEST(Knn, EmptyStructureReturnsNothing) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {10, 10, 10}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(1);
  EXPECT_TRUE(tree.nearest(space.sample(rng), 3).empty());
}

TEST(Knn, FewerPointsThanK) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {10, 10, 10}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(2);
  tree.insert(0, space.sample(rng));
  tree.insert(1, space.sample(rng));
  EXPECT_EQ(tree.nearest(space.sample(rng), 10).size(), 2u);
}

TEST(Knn, ResultsSortedAscending) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 200; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  const auto result = tree.nearest(space.sample(rng), 10);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.distance < b.distance;
                             }));
}

TEST(Knn, ExactSelfQuery) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(4);
  std::vector<Config> configs;
  for (int i = 0; i < 64; ++i) {
    configs.push_back(space.sample(rng));
    tree.insert(static_cast<graph::VertexId>(i), configs.back());
  }
  for (int i = 0; i < 64; ++i) {
    const auto nn = tree.nearest(configs[i], 1);
    ASSERT_EQ(nn.size(), 1u);
    EXPECT_EQ(nn[0].id, static_cast<graph::VertexId>(i));
    EXPECT_NEAR(nn[0].distance, 0.0, 1e-12);
  }
}

TEST(Knn, StatsCountCandidates) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  BruteForceKnn brute(space);
  Xoshiro256ss rng(5);
  for (int i = 0; i < 50; ++i)
    brute.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  PlannerStats stats;
  brute.nearest(space.sample(rng), 3, &stats);
  EXPECT_EQ(stats.knn_queries, 1u);
  EXPECT_EQ(stats.knn_candidates, 50u);
}

TEST(Knn, HugeKReturnsEveryPoint) {
  // k is caller-supplied (QueryRequest::k): a k far beyond the point count
  // must return every point, not size its heap by k and fail to allocate.
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(6);
  KdTreeKnn tree(space);
  BruteForceKnn brute(space);
  constexpr std::size_t kPoints = 100;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const Config c = space.sample(rng);
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  const std::size_t huge = std::size_t{1} << 40;
  const Config query = space.sample(rng);
  KnnScratch scratch;
  const auto c = std::as_const(tree).nearest(query, huge, scratch);
  const auto a = tree.nearest(query, huge);
  const auto b = brute.nearest(query, huge);
  for (const auto r : {a, b, c}) {
    ASSERT_EQ(r.size(), kPoints);
    EXPECT_TRUE(std::is_sorted(r.begin(), r.end(), neighbor_before));
    for (std::size_t i = 0; i < kPoints; ++i) {
      EXPECT_EQ(r[i].id, b[i].id) << i;
      EXPECT_EQ(r[i].distance, b[i].distance) << i;
    }
  }
}

// Randomized cross-check over every space kind with adversarial point sets:
// duplicates (exact distance ties), collinear points (symmetric ties),
// k > n, and the empty structure. Results must match bit-for-bit, including
// tie order — the canonical (distance, id) order totally orders candidates,
// so kd-tree traversal order must not leak into results.
TEST(Knn, RandomizedCrossCheckAllSpaces) {
  const CSpace spaces[] = {
      CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}, {-3, 3}, {-3, 3}}),
      CSpace::se2({{0, 0, 0}, {100, 100, 0}}),
      CSpace::se3({{0, 0, 0}, {100, 100, 100}}),
  };
  std::size_t total_queries = 0;
  for (const CSpace& space : spaces) {
    for (const std::size_t n : {0u, 3u, 17u, 150u, 400u}) {
      Xoshiro256ss rng(1000 + n);
      KdTreeKnn tree(space);
      BruteForceKnn brute(space);
      KnnScratch scratch;
      std::vector<Config> pts;
      for (std::size_t i = 0; i < n; ++i) {
        // ~1 in 6 points duplicates an earlier one: exact distance ties.
        const Config c = (!pts.empty() && rng.uniform_u64(6) == 0)
                             ? pts[rng.uniform_u64(pts.size())]
                             : space.sample(rng);
        pts.push_back(c);
        tree.insert(static_cast<graph::VertexId>(i), c);
        brute.insert(static_cast<graph::VertexId>(i), c);
      }
      for (int q = 0; q < 30; ++q) {
        // Half the queries sit exactly on stored points.
        const Config query = (!pts.empty() && q % 2 == 0)
                                 ? pts[rng.uniform_u64(pts.size())]
                                 : space.sample(rng);
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{3}, std::size_t{8}, n + 5}) {
          const auto c = std::as_const(tree).nearest(query, k, scratch);
          const auto a = tree.nearest(query, k);
          const auto b = brute.nearest(query, k);
          ++total_queries;
          ASSERT_EQ(a.size(), b.size()) << "n=" << n << " k=" << k;
          ASSERT_EQ(c.size(), b.size()) << "n=" << n << " k=" << k;
          for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].id, b[i].id)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
            ASSERT_EQ(a[i].distance, b[i].distance)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
            ASSERT_EQ(c[i].id, b[i].id)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
            ASSERT_EQ(c[i].distance, b[i].distance)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
          }
        }
      }
    }
  }
  EXPECT_GE(total_queries, 1000u);
}

TEST(Knn, CollinearPointsExactTieOrder) {
  // Points on a line; querying between two of them yields symmetric ties
  // at every radius. Ties must come back ordered by ascending id.
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  BruteForceKnn brute(space);
  for (int i = 0; i < 12; ++i) {
    const Config c{static_cast<double>(i), 0.0, 0.0};
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  const Config query{5.5, 0.0, 0.0};
  const auto a = tree.nearest(query, 6);
  const auto b = brute.nearest(query, 6);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
  // Pairs (5,6), (4,7), (3,8) tie at 0.5, 1.5, 2.5; smaller id first.
  EXPECT_EQ(a[0].id, 5u);
  EXPECT_EQ(a[1].id, 6u);
  EXPECT_EQ(a[2].id, 4u);
  EXPECT_EQ(a[3].id, 7u);
  EXPECT_EQ(a[4].id, 3u);
  EXPECT_EQ(a[5].id, 8u);
}

TEST(Knn, DuplicatePositionsOrderedById) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  const Config dup{10, 10, 10};
  // Insert the duplicate under deliberately unsorted ids.
  for (const graph::VertexId id : {7u, 2u, 9u, 4u}) tree.insert(id, dup);
  tree.insert(1, Config{90, 90, 90});
  const auto nn = tree.nearest(dup, 4);
  ASSERT_EQ(nn.size(), 4u);
  EXPECT_EQ(nn[0].id, 2u);
  EXPECT_EQ(nn[1].id, 4u);
  EXPECT_EQ(nn[2].id, 7u);
  EXPECT_EQ(nn[3].id, 9u);
  for (const auto& n : nn) EXPECT_EQ(n.distance, 0.0);
}

TEST(Knn, NearestBatchMatchesSingleQueries) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(31);
  KdTreeKnn tree(space);
  for (int i = 0; i < 300; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  std::vector<Config> queries;
  for (int q = 0; q < 40; ++q) queries.push_back(space.sample(rng));

  PlannerStats batch_stats;
  KnnBatch batch;
  tree.nearest_batch(queries, 7, batch, &batch_stats);
  ASSERT_EQ(batch.offsets.size(), queries.size() + 1);

  PlannerStats single_stats;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = tree.nearest(queries[q], 7, &single_stats);
    const auto got = batch.of(q);
    ASSERT_EQ(got.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(got[i].id, single[i].id);
      EXPECT_EQ(got[i].distance, single[i].distance);
    }
  }
  EXPECT_EQ(batch_stats.knn_queries, single_stats.knn_queries);
  EXPECT_EQ(batch_stats.knn_candidates, single_stats.knn_candidates);
}

TEST(Knn, LazyRebuildWhenBufferDominates) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(32);
  KdTreeKnn tree(space);
  // Inserting one-by-one, the insert-time policy (buffer >= 32 and
  // buffer*2 >= tree) rebuilds at 32, 64, 96, 144, 216, 324, 486 — after
  // 686 inserts the tree covers 486 points with 200 in the linear buffer.
  for (int i = 0; i < 686; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  EXPECT_EQ(tree.size(), 686u);
  EXPECT_EQ(tree.indexed_size(), 486u);
  // The first query notices the buffer dominating (200*4 >= 486) and folds
  // it into the tree instead of linearly scanning it on every query.
  tree.nearest(space.sample(rng), 4);
  EXPECT_EQ(tree.indexed_size(), 686u);
}

// --- PRM free functions ----------------------------------------------------

TEST(PrmPhases, SampleRegionKeepsValidOnly) {
  const auto e = env::med_cube();
  PlannerStats stats;
  Xoshiro256ss rng(11);
  // A region straddling the obstacle: some attempts must be rejected.
  const geo::Aabb box{{10, 40, 40}, {40, 60, 60}};
  const auto samples = planner::sample_region(*e, box, 300, rng, stats);
  EXPECT_EQ(stats.samples_attempted, 300u);
  EXPECT_EQ(stats.samples_valid, samples.size());
  EXPECT_LT(samples.size(), 300u);
  EXPECT_GT(samples.size(), 0u);
  for (const auto& c : samples) {
    EXPECT_TRUE(box.contains(e->space().position(c)));
    EXPECT_TRUE(e->validity().valid(c));
  }
}

TEST(PrmPhases, SampleRegionDeterministic) {
  const auto e = env::med_cube();
  const geo::Aabb box{{0, 0, 0}, {30, 30, 30}};
  PlannerStats s1, s2;
  Xoshiro256ss r1(9), r2(9);
  const auto a = planner::sample_region(*e, box, 100, r1, s1);
  const auto b = planner::sample_region(*e, box, 100, r2, s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(PrmPhases, ConnectWithinAddsValidEdges) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(12);
  const geo::Aabb box{{0, 0, 0}, {40, 40, 40}};
  const auto samples = planner::sample_region(*e, box, 60, rng, stats);
  std::vector<graph::VertexId> ids;
  for (const auto& c : samples) ids.push_back(g.add_vertex({c, 0}));
  graph::UnionFind cc(g.num_vertices());
  PrmParams params;
  planner::connect_within(*e, g, ids, params, stats, &cc);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_GT(stats.lp_success, 0u);
  // In a free environment every local plan succeeds.
  EXPECT_EQ(stats.lp_success, stats.lp_attempts);
  // Component skipping keeps the roadmap a forest.
  EXPECT_LE(g.num_edges(), g.num_vertices() - 1);
}

TEST(PrmPhases, ConnectWithinWithoutSkipAddsRedundantEdges) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(13);
  const auto samples = planner::sample_region(
      *e, geo::Aabb{{0, 0, 0}, {40, 40, 40}}, 60, rng, stats);
  std::vector<graph::VertexId> ids;
  for (const auto& c : samples) ids.push_back(g.add_vertex({c, 0}));
  PrmParams params;
  params.skip_same_component = false;
  planner::connect_within(*e, g, ids, params, stats, nullptr);
  EXPECT_GT(g.num_edges(), g.num_vertices() - 1);
}

TEST(PrmPhases, ConnectBetweenBridgesRegions) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(14);
  std::vector<graph::VertexId> left, right;
  for (const auto& c : planner::sample_region(
           *e, geo::Aabb{{0, 0, 0}, {20, 40, 40}}, 40, rng, stats))
    left.push_back(g.add_vertex({c, 0}));
  for (const auto& c : planner::sample_region(
           *e, geo::Aabb{{20, 0, 0}, {40, 40, 40}}, 40, rng, stats))
    right.push_back(g.add_vertex({c, 1}));
  PrmParams params;
  const auto added = planner::connect_between(*e, g, left, right, params,
                                              stats, nullptr, 8);
  EXPECT_GT(added, 0u);
  EXPECT_EQ(g.num_edges(), added);
}

TEST(PrmPhases, ConnectBetweenEmptySidesNoOp) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  PrmParams params;
  EXPECT_EQ(planner::connect_between(*e, g, {}, {}, params, stats), 0u);
}

// --- Prm end to end -----------------------------------------------------

TEST(Prm, BuildsConnectedRoadmapInFreeSpace) {
  const auto e = env::free_env();
  Prm prm(*e);
  prm.build(400, 21);
  EXPECT_GT(prm.roadmap().num_vertices(), 300u);
  EXPECT_GT(prm.roadmap().num_edges(), 0u);
}

TEST(Prm, SolvesQueryAroundObstacle) {
  const auto e = env::med_cube();
  PrmParams params;
  params.k_neighbors = 8;
  Prm prm(*e, params);
  prm.build(1500, 22);
  Xoshiro256ss rng(23);
  const Config start = e->space().at_position({8, 8, 8}, rng);
  const Config goal = e->space().at_position({92, 92, 92}, rng);
  ASSERT_TRUE(e->validity().valid(start));
  ASSERT_TRUE(e->validity().valid(goal));
  const auto path = prm.query(start, goal);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 2u);
  EXPECT_EQ(path->front(), start);
  EXPECT_EQ(path->back(), goal);
  EXPECT_TRUE(path_valid(*e, *path, 1.0));
}

TEST(Prm, QueryFailsForInvalidEndpoints) {
  const auto e = env::med_cube();
  Prm prm(*e);
  prm.build(200, 24);
  Xoshiro256ss rng(25);
  const Config inside_obstacle = e->space().at_position({50, 50, 50}, rng);
  const Config valid_goal = e->space().at_position({5, 5, 5}, rng);
  EXPECT_FALSE(prm.query(inside_obstacle, valid_goal).has_value());
}

TEST(Prm, DeterministicAcrossRuns) {
  const auto e = env::small_cube();
  Prm a(*e), b(*e);
  a.build(300, 77);
  b.build(300, 77);
  EXPECT_EQ(a.roadmap().num_vertices(), b.roadmap().num_vertices());
  EXPECT_EQ(a.roadmap().num_edges(), b.roadmap().num_edges());
}

// --- path helpers -----------------------------------------------------

TEST(Query, PathLengthSumsSegments) {
  const auto e = env::free_env();
  const std::vector<Config> path{Config{0, 0, 0, 1, 0, 0, 0},
                                 Config{10, 0, 0, 1, 0, 0, 0},
                                 Config{10, 5, 0, 1, 0, 0, 0}};
  EXPECT_NEAR(path_length(*e, path), 15.0, 1e-9);
}

TEST(Query, PathValidDetectsCollision) {
  const auto e = env::med_cube();
  Xoshiro256ss rng(26);
  // Straight line through the central cube is invalid.
  const std::vector<Config> bad{e->space().at_position({5, 50, 50}, rng),
                                e->space().at_position({95, 50, 50}, rng)};
  EXPECT_FALSE(path_valid(*e, bad, 1.0));
  // A short edge in the free corner is valid.
  const std::vector<Config> good{e->space().at_position({5, 5, 5}, rng),
                                 e->space().at_position({10, 5, 5}, rng)};
  EXPECT_TRUE(path_valid(*e, good, 1.0));
}

// --- landmark-guided A* --------------------------------------------------
//
// find_path_with_attachments with a LandmarkTable must return the same
// path as the metric-only search (query_roadmap's reference) whenever the
// shortest path is unique, which on a roadmap of real-valued edge lengths
// is every query. Where paths cost exactly the same (the unit lattice
// below) the two heuristics may settle the tie differently, so there only
// the cost is pinned.

bool same_path(const std::vector<Config>& a, const std::vector<Config>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t d = 0; d < a[i].size(); ++d)
      if (a[i][d] != b[i][d]) return false;  // bit-identical, not approx
  }
  return true;
}

/// A cyclic PRM roadmap (no same-component skipping) plus 24 islands of
/// one to three random vertices chained by metric-length edges, so queries
/// can start where the goal is out of reach.
Roadmap cyclic_roadmap(const env::Environment& e, std::size_t attempts,
                       std::uint64_t seed) {
  PrmParams params;
  params.k_neighbors = 8;
  params.resolution = 0.5;
  params.skip_same_component = false;
  Prm prm(e, params);
  prm.build(attempts, seed);
  Roadmap g = prm.roadmap();
  Xoshiro256ss rng(seed + 1);
  for (int island = 0; island < 24; ++island) {
    graph::VertexId prev = graph::kInvalidVertex;
    for (int i = 0; i <= island % 3; ++i) {
      const graph::VertexId v = g.add_vertex({e.space().sample(rng), 0});
      if (prev != graph::kInvalidVertex)
        g.add_edge(prev, v,
                   {e.space().distance(g.vertex(prev).cfg, g.vertex(v).cfg)});
      prev = v;
    }
  }
  return g;
}

struct LandmarkSweep {
  std::size_t queries = 0, solved = 0, island = 0, island_unreachable = 0;
  std::uint64_t plain_expanded = 0, guided_expanded = 0;
};

/// Called after each guided search of a sweep that searched (did not
/// return before bumping the scratch's generation), with its goal edges.
using GuidedSearchObserver =
    std::function<void(const SearchScratch&, const std::vector<AttachEdge>&)>;

/// `n` seeded overlay queries: both endpoints attach to their 8 nearest
/// vertices with metric-length edges; every fourth query starts on a vertex
/// outside the largest component and attaches only inside its island. Each
/// query runs with and without the table, and the two answers must be
/// bit-identical.
LandmarkSweep sweep_landmark_queries(const env::Environment& e,
                                     const Roadmap& g, std::size_t n,
                                     std::uint64_t seed,
                                     const GuidedSearchObserver& observe = {}) {
  const LandmarkTable table(g);
  std::vector<std::size_t> comp_size(table.num_components(), 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ++comp_size[table.component(v)];
  const auto largest = static_cast<std::uint32_t>(
      std::max_element(comp_size.begin(), comp_size.end()) -
      comp_size.begin());
  std::vector<graph::VertexId> islanders;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (table.component(v) != largest) islanders.push_back(v);

  KdTreeKnn finder(e.space(), g);
  const auto attach = [&](const Config& c) {
    std::vector<AttachEdge> out;
    for (const Neighbor& nb : finder.nearest(c, 8))
      out.push_back({nb.id, e.space().distance(c, g.vertex(nb.id).cfg)});
    return out;
  };

  LandmarkSweep sw;
  SearchScratch plain_scratch, guided_scratch;
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool on_island = !islanders.empty() && i % 4 == 0;
    const graph::VertexId home =
        on_island ? islanders[rng() % islanders.size()] : 0;
    const Config start =
        on_island ? g.vertex(home).cfg : e.space().sample(rng);
    const Config goal = e.space().sample(rng);
    auto se = attach(start);
    const auto ge = attach(goal);
    if (on_island)  // the start sees only its own island
      std::erase_if(se, [&](const AttachEdge& a) {
        return table.component(a.to) != table.component(home);
      });
    const auto plain = find_path_with_attachments(e, g, start, goal, se, ge,
                                                  nullptr, &plain_scratch);
    const std::uint32_t generation = guided_scratch.generation;
    const auto guided = find_path_with_attachments(e, g, start, goal, se, ge,
                                                   &table, &guided_scratch);
    if (observe && guided_scratch.generation != generation)
      observe(guided_scratch, ge);
    ++sw.queries;
    sw.plain_expanded += plain_scratch.expanded;
    sw.guided_expanded += guided_scratch.expanded;
    if (on_island) ++sw.island;
    EXPECT_EQ(plain.has_value(), guided.has_value()) << "query " << i;
    if (plain.has_value() && guided.has_value()) {
      ++sw.solved;
      EXPECT_TRUE(same_path(*plain, *guided)) << "query " << i;
    } else if (on_island) {
      ++sw.island_unreachable;
    }
  }
  return sw;
}

/// Reference Dijkstra on a lazy std::priority_queue, kept apart from
/// graph::IndexedHeap so that it can check the landmark table and the
/// guided heuristic: graph distance to the nearest source, where source
/// `a.to` starts at `a.length` (the goal edges give distances to a virtual
/// goal).
std::vector<double> reference_distances(const Roadmap& g,
                                        const std::vector<AttachEdge>& srcs) {
  std::vector<double> dist(g.num_vertices(),
                           std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, graph::VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  for (const AttachEdge& a : srcs) {
    if (a.length < dist[a.to]) {
      dist[a.to] = a.length;
      open.emplace(a.length, a.to);
    }
  }
  while (!open.empty()) {
    const auto [d, u] = open.top();
    open.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const auto& ed : g.edges_of(u)) {
      if (d + ed.prop.length < dist[ed.to]) {
        dist[ed.to] = d + ed.prop.length;
        open.emplace(dist[ed.to], ed.to);
      }
    }
  }
  return dist;
}

/// Reference reachability: breadth-first search from `src`.
bool reference_reachable(const Roadmap& g, graph::VertexId src,
                         graph::VertexId dst) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<graph::VertexId> frontier{src};
  seen[src] = true;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (const auto& ed : g.edges_of(frontier[i])) {
      if (!seen[ed.to]) {
        seen[ed.to] = true;
        frontier.push_back(ed.to);
      }
    }
  }
  return seen[dst];
}

TEST(LandmarkTable, LabelsComponentsAndStoresGraphDistances) {
  const auto e = env::maze_2d();
  const Roadmap g = cyclic_roadmap(*e, 1500, 41);
  const LandmarkTable table(g);
  ASSERT_EQ(table.num_vertices(), g.num_vertices());
  ASSERT_GT(table.num_components(), 1u) << "roadmap has no islands";
  constexpr std::size_t L = LandmarkTable::kLandmarks;

  // Landmark l of component c is the vertex of c at distance 0 in column
  // l; the first one is c's lowest-id vertex (labels follow lowest ids).
  std::vector<std::vector<graph::VertexId>> landmark(
      table.num_components(),
      std::vector<graph::VertexId>(L, graph::kInvalidVertex));
  std::vector<graph::VertexId> lowest(table.num_components(),
                                      graph::kInvalidVertex);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t c = table.component(v);
    ASSERT_LT(c, table.num_components());
    if (lowest[c] == graph::kInvalidVertex) {
      lowest[c] = v;
      if (c > 0) {
        EXPECT_GT(v, lowest[c - 1]);
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (table.row(v)[l] == 0.0 && landmark[c][l] == graph::kInvalidVertex)
        landmark[c][l] = v;
    }
  }
  for (std::uint32_t c = 0; c < table.num_components(); ++c) {
    EXPECT_EQ(landmark[c][0], lowest[c]);
    for (std::size_t l = 0; l < L; ++l)
      EXPECT_NE(landmark[c][l], graph::kInvalidVertex) << c << "/" << l;
  }

  // Rows hold Dijkstra distances to the vertex's own landmarks, and two
  // vertices share a label exactly when they are connected.
  Xoshiro256ss rng(42);
  for (int probe = 0; probe < 40; ++probe) {
    const auto v = static_cast<graph::VertexId>(rng() % g.num_vertices());
    const std::uint32_t c = table.component(v);
    for (std::size_t l = 0; l < L; ++l) {
      const double d = reference_distances(g, {{landmark[c][l], 0.0}})[v];
      ASSERT_TRUE(std::isfinite(d));
      EXPECT_DOUBLE_EQ(table.row(v)[l], d);
    }
    const auto w = static_cast<graph::VertexId>(rng() % g.num_vertices());
    EXPECT_EQ(table.component(v) == table.component(w),
              reference_reachable(g, v, w));
  }
}

TEST(LandmarkTable, DeterministicAndEmptySafe) {
  const auto e = env::maze_2d();
  const Roadmap g = cyclic_roadmap(*e, 800, 43);
  const LandmarkTable a(g), b(g);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.component(v), b.component(v));
    for (std::size_t l = 0; l < LandmarkTable::kLandmarks; ++l)
      ASSERT_EQ(a.row(v)[l], b.row(v)[l]);
  }
  const LandmarkTable empty{Roadmap{}};
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_components(), 0u);
}

/// Checks the heuristic a guided search left in `sc` against reference
/// distances to its virtual goal (reached through `ge`): admissible on every
/// roadmap vertex the search touched, consistent on every roadmap edge
/// between two of them and on every goal edge. Returns how many roadmap
/// vertices the search touched.
std::size_t check_guided_heuristic(const Roadmap& g, const SearchScratch& sc,
                                   const std::vector<AttachEdge>& ge) {
  const std::vector<double> to_goal = reference_distances(g, ge);
  const auto touched = [&](graph::VertexId v) {
    return sc.nodes[v].stamp == sc.generation;
  };
  std::size_t count = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!touched(v)) continue;
    ++count;
    const double h = sc.nodes[v].h;
    EXPECT_LE(h, to_goal[v]) << "vertex " << v;
    for (const auto& ed : g.edges_of(v)) {
      if (touched(ed.to)) {
        EXPECT_LE(h, ed.prop.length + sc.nodes[ed.to].h)
            << "edge " << v << " -> " << ed.to;
      }
    }
  }
  for (const AttachEdge& a : ge) {
    if (touched(a.to)) {
      EXPECT_LE(sc.nodes[a.to].h, a.length) << "goal edge at " << a.to;
    }
  }
  return count;
}

TEST(LandmarkAStar, BitIdenticalToMetricAStarOnMaze2d) {
  const auto e = env::maze_2d();
  const Roadmap g = cyclic_roadmap(*e, 3000, 44);
  const auto sw = sweep_landmark_queries(*e, g, 2000, 45);
  EXPECT_EQ(sw.queries, 2000u);
  EXPECT_GT(sw.solved, 1000u);
  EXPECT_GT(sw.island, 0u);
  EXPECT_GT(sw.island_unreachable, 0u) << "no query started on an island";
  // The table exists to prune: it must at least halve the expansions.
  EXPECT_LT(2 * sw.guided_expanded, sw.plain_expanded);
}

TEST(LandmarkAStar, BitIdenticalToMetricAStarInSe3) {
  const auto e = env::med_cube();
  const Roadmap g = cyclic_roadmap(*e, 2500, 46);
  const auto sw = sweep_landmark_queries(*e, g, 2000, 47);
  EXPECT_EQ(sw.queries, 2000u);
  EXPECT_GT(sw.solved, 1000u);
  EXPECT_GT(sw.island, 0u);
  EXPECT_LT(sw.guided_expanded, sw.plain_expanded);
}

TEST(LandmarkAStar, UnitLatticeTiesKeepTheShortestCost) {
  // 12 x 12 lattice, unit edges: many shortest paths cost exactly the same.
  const auto e = env::maze_2d();
  constexpr int kSide = 12;
  Roadmap g;
  const auto id = [](int x, int y) {
    return static_cast<graph::VertexId>(y * kSide + x);
  };
  for (int y = 0; y < kSide; ++y)
    for (int x = 0; x < kSide; ++x)
      g.add_vertex({Config{1.0 + x, 1.0 + y, 0.0}, 0});
  for (int y = 0; y < kSide; ++y)
    for (int x = 0; x < kSide; ++x) {
      if (x + 1 < kSide) g.add_edge(id(x, y), id(x + 1, y), {1.0});
      if (y + 1 < kSide) g.add_edge(id(x, y), id(x, y + 1), {1.0});
    }
  const LandmarkTable table(g);
  Xoshiro256ss rng(48);
  for (int q = 0; q < 200; ++q) {
    const auto a = static_cast<graph::VertexId>(rng() % (kSide * kSide));
    const auto b = static_cast<graph::VertexId>(rng() % (kSide * kSide));
    const Config& start = g.vertex(a).cfg;
    const Config& goal = g.vertex(b).cfg;
    const std::vector<AttachEdge> se{{a, 0.0}}, ge{{b, 0.0}};
    const auto plain = find_path_with_attachments(*e, g, start, goal, se, ge);
    const auto guided =
        find_path_with_attachments(*e, g, start, goal, se, ge, &table);
    ASSERT_TRUE(plain.has_value());
    ASSERT_TRUE(guided.has_value());
    EXPECT_EQ(path_length(*e, *plain), path_length(*e, *guided)) << q;
    EXPECT_EQ(guided->front(), start);
    EXPECT_EQ(guided->back(), goal);
  }
}

TEST(LandmarkAStar, DisjointIslandsAnswerUnreachableWithoutSearching) {
  // Two 3-vertex islands; start attaches only to the first, goal only to
  // the second.
  const auto e = env::maze_2d();
  Roadmap g;
  for (int i = 0; i < 6; ++i) g.add_vertex({Config{2.0 + i, 2.0, 0.0}, 0});
  g.add_edge(0, 1, {1.0});
  g.add_edge(1, 2, {1.0});
  g.add_edge(3, 4, {1.0});
  g.add_edge(4, 5, {1.0});
  const LandmarkTable table(g);
  ASSERT_EQ(table.num_components(), 2u);
  const Config start = g.vertex(0).cfg, goal = g.vertex(5).cfg;
  const std::vector<AttachEdge> se{{0, 0.0}, {1, 1.0}}, ge{{5, 0.0}, {4, 1.0}};

  SearchScratch plain_scratch, guided_scratch;
  EXPECT_FALSE(find_path_with_attachments(*e, g, start, goal, se, ge, nullptr,
                                          &plain_scratch)
                   .has_value());
  EXPECT_GT(plain_scratch.expanded, 0u);
  EXPECT_FALSE(find_path_with_attachments(*e, g, start, goal, se, ge, &table,
                                          &guided_scratch)
                   .has_value());
  EXPECT_EQ(guided_scratch.expanded, 0u);

  // One goal edge into the start's island: reachable again, same answer.
  const std::vector<AttachEdge> ge2{{5, 0.0}, {2, 3.0}};
  const auto plain = find_path_with_attachments(*e, g, start, goal, se, ge2);
  const auto guided =
      find_path_with_attachments(*e, g, start, goal, se, ge2, &table);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(guided.has_value());
  EXPECT_TRUE(same_path(*plain, *guided));
}

TEST(LandmarkAStar, HeuristicNeverOverestimatesAndIsConsistent) {
  const auto e = env::maze_2d();
  {
    const Roadmap g = cyclic_roadmap(*e, 3000, 44);
    std::size_t searches = 0, touched = 0;
    const auto sw = sweep_landmark_queries(
        *e, g, 400, 52,
        [&](const SearchScratch& sc, const std::vector<AttachEdge>& ge) {
          ++searches;
          touched += check_guided_heuristic(g, sc, ge);
        });
    EXPECT_GT(sw.solved, 200u);
    EXPECT_GE(searches, sw.solved);
    EXPECT_GT(touched, 100 * searches);
  }

  // Goal edges into two components, start edges into two components; only
  // component A holds both. A's far side is the only way to the goal; the
  // start-only chain C lies straight toward it, and B holds goal edges
  // only.
  Roadmap g;
  const auto add = [&](double x, double y) {
    return g.add_vertex({Config{x, y, 0.0}, 0});
  };
  const auto link = [&](graph::VertexId a, graph::VertexId b) {
    g.add_edge(a, b, {e->space().distance(g.vertex(a).cfg,
                                          g.vertex(b).cfg)});
  };
  const graph::VertexId a0 = add(2, 4), a1 = add(2, 10), a2 = add(12, 10),
                        a3 = add(12, 4);
  link(a0, a1);
  link(a1, a2);
  link(a2, a3);
  const graph::VertexId c0 = add(4, 2);
  add(6, 2);
  add(8, 2);
  const graph::VertexId c3 = add(10, 2);
  for (graph::VertexId v = c0; v < c3; ++v) link(v, v + 1);
  const graph::VertexId b0 = add(14, 2), b1 = add(16, 2);
  link(b0, b1);
  const LandmarkTable table(g);
  ASSERT_EQ(table.num_components(), 3u);

  const Config start{2.0, 2.0, 0.0}, goal{12.0, 2.0, 0.0};
  const auto edge_to = [&](const Config& c, graph::VertexId v) {
    return AttachEdge{v, e->space().distance(c, g.vertex(v).cfg)};
  };
  const std::vector<AttachEdge> se{edge_to(start, a0), edge_to(start, c0)};
  const std::vector<AttachEdge> ge{edge_to(goal, b0), edge_to(goal, a3),
                                   edge_to(goal, b1)};
  SearchScratch plain_scratch, guided_scratch;
  const auto plain = find_path_with_attachments(*e, g, start, goal, se, ge,
                                                nullptr, &plain_scratch);
  const auto guided = find_path_with_attachments(*e, g, start, goal, se, ge,
                                                 &table, &guided_scratch);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(guided.has_value());
  EXPECT_TRUE(same_path(*plain, *guided));
  EXPECT_EQ(guided->size(), 6u);  // start, a0..a3, goal
  EXPECT_GT(check_guided_heuristic(g, guided_scratch, ge), 0u);
  EXPECT_LT(guided_scratch.expanded, plain_scratch.expanded);

  const auto& nodes = guided_scratch.nodes;
  const std::uint32_t gen = guided_scratch.generation;
  // B holds no start edge: not even touched.
  for (const graph::VertexId v : {b0, b1}) EXPECT_NE(nodes[v].stamp, gen) << v;
  // C holds no goal edge: touched through the start edge, never queued.
  for (graph::VertexId v = c0; v <= c3; ++v)
    EXPECT_TRUE(nodes[v].stamp != gen ||
                nodes[v].prev == graph::kInvalidVertex)
        << v;
}

TEST(LandmarkAStar, ScratchReuseAcrossRoadmapsMatchesFreshScratch) {
  const auto e = env::maze_2d();
  const Roadmap small = cyclic_roadmap(*e, 600, 49);
  const Roadmap large = cyclic_roadmap(*e, 2000, 50);
  const LandmarkTable ts(small), tl(large);
  SearchScratch shared;
  Xoshiro256ss rng(51);
  for (int q = 0; q < 60; ++q) {
    const Roadmap& g = q % 2 == 0 ? small : large;
    const LandmarkTable& t = q % 2 == 0 ? ts : tl;
    const auto a = static_cast<graph::VertexId>(rng() % g.num_vertices());
    const auto b = static_cast<graph::VertexId>(rng() % g.num_vertices());
    const std::vector<AttachEdge> se{{a, 0.0}}, ge{{b, 0.0}};
    const auto fresh = find_path_with_attachments(
        *e, g, g.vertex(a).cfg, g.vertex(b).cfg, se, ge, &t);
    const auto reused = find_path_with_attachments(
        *e, g, g.vertex(a).cfg, g.vertex(b).cfg, se, ge, &t, &shared);
    ASSERT_EQ(fresh.has_value(), reused.has_value()) << q;
    if (fresh.has_value()) {
      EXPECT_TRUE(same_path(*fresh, *reused)) << q;
    }
  }
}

// --- RRT ---------------------------------------------------------------

TEST(RrtBranch, GrowsTowardTarget) {
  const auto e = env::free_env();
  Roadmap tree;
  Xoshiro256ss rng(31);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  RrtParams params;
  params.max_nodes = 50;
  params.max_iterations = 500;
  RrtBranch branch(*e, tree, root, 3, params);
  PlannerStats stats;
  const geo::Vec3 target{90, 50, 50};
  branch.grow([&](Xoshiro256ss& g) { return e->space().at_position(target, g); },
              rng, stats);
  EXPECT_EQ(tree.num_vertices(), 50u);
  EXPECT_TRUE(graph::is_forest(tree));
  // Growth must have advanced toward the target.
  double best = 1e9;
  for (graph::VertexId id = 0; id < tree.num_vertices(); ++id) {
    const double d = (e->space().position(tree.vertex(id).cfg) - target).norm();
    best = std::min(best, d);
  }
  EXPECT_LT(best, 20.0);
  // Region tag recorded on every vertex.
  for (graph::VertexId id = 0; id < tree.num_vertices(); ++id)
    EXPECT_EQ(tree.vertex(id).region, 3u);
}

TEST(RrtBranch, RespectsStepSize) {
  const auto e = env::free_env();
  Roadmap tree;
  Xoshiro256ss rng(32);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  RrtParams params;
  params.step = 3.0;
  params.max_nodes = 30;
  params.max_iterations = 300;
  RrtBranch branch(*e, tree, root, 0, params);
  PlannerStats stats;
  branch.grow([&](Xoshiro256ss& g) { return e->space().sample(g); }, rng,
              stats);
  for (graph::VertexId v = 0; v < tree.num_vertices(); ++v)
    for (const auto& he : tree.edges_of(v))
      EXPECT_LE(he.prop.length, params.step + 1e-9);
}

TEST(RrtBranch, BlockedRegionGrowsLess) {
  const auto e = env::mixed(0.60);
  RrtParams params;
  params.max_nodes = 60;
  params.max_iterations = 240;
  PlannerStats s_free, s_blocked;
  Xoshiro256ss rng(33);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  // Free direction: -x (the mixed builder skews clutter toward +x).
  Roadmap t1;
  RrtBranch free_branch(*e, t1, root, 0, params);
  Xoshiro256ss r1(34);
  free_branch.grow(
      [&](Xoshiro256ss& g) {
        return e->space().at_position(
            {g.uniform(2, 40), g.uniform(20, 80), g.uniform(20, 80)}, g);
      },
      r1, s_free);
  Roadmap t2;
  RrtBranch blocked_branch(*e, t2, root, 0, params);
  Xoshiro256ss r2(34);
  blocked_branch.grow(
      [&](Xoshiro256ss& g) {
        return e->space().at_position(
            {g.uniform(60, 98), g.uniform(20, 80), g.uniform(20, 80)}, g);
      },
      r2, s_blocked);
  EXPECT_GE(t1.num_vertices(), t2.num_vertices());
  // Blocked growth has a lower extension success rate.
  const double free_rate =
      static_cast<double>(s_free.rrt_extends_success) /
      static_cast<double>(s_free.rrt_extends);
  const double blocked_rate =
      static_cast<double>(s_blocked.rrt_extends_success) /
      static_cast<double>(s_blocked.rrt_extends);
  EXPECT_GT(free_rate, blocked_rate);
}

}  // namespace
}  // namespace pmpl::planner
