// Tests for core/: region grids, radial regions, weight estimators, the
// PRM/RRT workload builders and replay drivers, parallel build.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <stdexcept>
#include <tuple>

#include "core/parallel_build.hpp"
#include "core/prm_driver.hpp"
#include "core/radial_regions.hpp"
#include "core/region_grid.hpp"
#include "core/region_weight.hpp"
#include "core/rrt_driver.hpp"
#include "core/strategies.hpp"
#include "env/builders.hpp"
#include "graph/tree_utils.hpp"
#include "loadbal/partition.hpp"
#include "util/io_status.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pmpl::core {
namespace {

// --- RegionGrid -----------------------------------------------------------

TEST(RegionGrid, CellCountAndOrdering) {
  const RegionGrid g({{0, 0, 0}, {10, 20, 30}}, 2, 4, 5);
  EXPECT_EQ(g.size(), 40u);
  // x-major: id = (ix*ny + iy)*nz + iz.
  EXPECT_EQ(g.id_of(0, 0, 0), 0u);
  EXPECT_EQ(g.id_of(0, 0, 1), 1u);
  EXPECT_EQ(g.id_of(0, 1, 0), 5u);
  EXPECT_EQ(g.id_of(1, 0, 0), 20u);
  std::uint32_t ix, iy, iz;
  g.coords_of(27, ix, iy, iz);
  EXPECT_EQ(g.id_of(ix, iy, iz), 27u);
}

TEST(RegionGrid, CellBoxesTileTheBounds) {
  const RegionGrid g({{0, 0, 0}, {12, 12, 12}}, 3, 3, 3);
  double total = 0.0;
  for (std::uint32_t id = 0; id < g.size(); ++id)
    total += g.cell_box(id).volume();
  EXPECT_NEAR(total, 12.0 * 12.0 * 12.0, 1e-9);
}

TEST(RegionGrid, CellOfRoundTrip) {
  const RegionGrid g({{0, 0, 0}, {30, 30, 30}}, 3, 3, 3);
  for (std::uint32_t id = 0; id < g.size(); ++id)
    EXPECT_EQ(g.cell_of(g.centroid(id)), id);
  // Clamping outside points.
  EXPECT_EQ(g.cell_of({-5, -5, -5}), g.id_of(0, 0, 0));
  EXPECT_EQ(g.cell_of({99, 99, 99}), g.id_of(2, 2, 2));
}

TEST(RegionGrid, OverlapExpandsSamplingBox) {
  const RegionGrid g({{0, 0, 0}, {30, 30, 30}}, 3, 3, 3, 2.0);
  const auto center_cell = g.id_of(1, 1, 1);
  const auto box = g.sampling_box(center_cell);
  EXPECT_EQ(box.lo, (geo::Vec3{8, 8, 8}));
  EXPECT_EQ(box.hi, (geo::Vec3{22, 22, 22}));
  // Corner cells are clipped to the bounds.
  const auto corner = g.sampling_box(g.id_of(0, 0, 0));
  EXPECT_EQ(corner.lo, (geo::Vec3{0, 0, 0}));
}

TEST(RegionGrid, AdjacencyIsFaceNeighborhood) {
  const RegionGrid g({{0, 0, 0}, {30, 30, 30}}, 3, 3, 3);
  const auto edges = g.adjacency_edges();
  // 3 directions * 3*3*2 = 54 edges in a 3^3 grid.
  EXPECT_EQ(edges.size(), 54u);
  for (const auto& [a, b] : edges) {
    EXPECT_LT(a, b);
    std::uint32_t ax, ay, az, bx, by, bz;
    g.coords_of(a, ax, ay, az);
    g.coords_of(b, bx, by, bz);
    const int manhattan = std::abs(int(ax) - int(bx)) +
                          std::abs(int(ay) - int(by)) +
                          std::abs(int(az) - int(bz));
    EXPECT_EQ(manhattan, 1);
  }
}

TEST(RegionGrid, MakeAuto2dAnd3d) {
  const auto g3 = RegionGrid::make_auto({{0, 0, 0}, {1, 1, 1}}, 512, false);
  EXPECT_EQ(g3.size(), 512u);
  EXPECT_EQ(g3.nz(), 8u);
  const auto g2 = RegionGrid::make_auto({{0, 0, 0}, {1, 1, 0}}, 64, true);
  EXPECT_EQ(g2.size(), 64u);
  EXPECT_EQ(g2.nz(), 1u);
}

// --- RadialRegions -----------------------------------------------------

TEST(RadialRegions, DirectionsAreUnit) {
  const RadialRegions r({50, 50, 50}, 40, 64, 4, 7, false);
  EXPECT_EQ(r.size(), 64u);
  for (std::uint32_t i = 0; i < r.size(); ++i)
    EXPECT_NEAR(r.direction(i).norm(), 1.0, 1e-12);
}

TEST(RadialRegions, TargetsOnSphereSurface) {
  const RadialRegions r({50, 50, 50}, 40, 32, 4, 8, false);
  for (std::uint32_t i = 0; i < r.size(); ++i)
    EXPECT_NEAR((r.target(i) - geo::Vec3{50, 50, 50}).norm(), 40.0, 1e-9);
}

TEST(RadialRegions, TwoDDirectionsInPlane) {
  const RadialRegions r({0, 0, 0}, 10, 16, 2, 9, true);
  for (std::uint32_t i = 0; i < r.size(); ++i)
    EXPECT_DOUBLE_EQ(r.direction(i).z, 0.0);
}

TEST(RadialRegions, SampleInConeStaysInConeAndRadius) {
  const RadialRegions r({50, 50, 50}, 40, 32, 4, 10, false);
  Xoshiro256ss rng(11);
  const double half = r.cone_half_angle(1.5);
  for (std::uint32_t region = 0; region < 8; ++region) {
    for (int i = 0; i < 200; ++i) {
      const geo::Vec3 p = r.sample_in_cone(region, rng, 1.5);
      const geo::Vec3 d = p - geo::Vec3{50, 50, 50};
      EXPECT_LE(d.norm(), 40.0 + 1e-9);
      if (d.norm() > 1e-9) {
        const double cos_angle =
            d.normalized().dot(r.direction(region));
        EXPECT_GE(cos_angle, std::cos(half) - 1e-9);
      }
    }
  }
}

TEST(RadialRegions, AdjacencyCountsBounded) {
  const RadialRegions r({0, 0, 0}, 10, 48, 4, 12, false);
  const auto edges = r.adjacency_edges();
  // Each region proposes <= 4 neighbors; deduped union is bounded.
  EXPECT_LE(edges.size(), 48u * 4u);
  EXPECT_GE(edges.size(), 48u);  // everyone has at least one neighbor
  std::set<std::pair<std::uint32_t, std::uint32_t>> unique(edges.begin(),
                                                           edges.end());
  EXPECT_EQ(unique.size(), edges.size());
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

TEST(RadialRegions, DeterministicPerSeed) {
  const RadialRegions a({0, 0, 0}, 10, 32, 4, 13, false);
  const RadialRegions b({0, 0, 0}, 10, 32, 4, 13, false);
  for (std::uint32_t i = 0; i < 32; ++i)
    EXPECT_EQ(a.direction(i), b.direction(i));
}

// --- region weights --------------------------------------------------------

TEST(RegionWeight, SampleCountsSmoothed) {
  const auto w = weights_from_sample_counts({0, 5, 10});
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 6.0);
  EXPECT_DOUBLE_EQ(w[2], 11.0);
}

TEST(RegionWeight, KRaysSeesBlockedDirections) {
  // Environment blocked on +x side only.
  auto e = env::mixed(0.60);
  const RadialRegions regions({50, 50, 50}, 45, 64, 4, 19, false);
  std::uint64_t casts = 0;
  const auto w = weights_k_rays(*e, regions, 16, 20, &casts);
  EXPECT_EQ(casts, 64u * 16u);
  // Average reach toward -x (clutter-light) should exceed +x (cluttered).
  double minus_x = 0.0, plus_x = 0.0;
  int n_minus = 0, n_plus = 0;
  for (std::uint32_t i = 0; i < regions.size(); ++i) {
    if (regions.direction(i).x < -0.5) {
      minus_x += w[i];
      ++n_minus;
    } else if (regions.direction(i).x > 0.5) {
      plus_x += w[i];
      ++n_plus;
    }
  }
  ASSERT_GT(n_minus, 0);
  ASSERT_GT(n_plus, 0);
  EXPECT_GT(minus_x / n_minus, plus_x / n_plus);
}

// --- strategies --------------------------------------------------------------

TEST(Strategies, NamesAndClassification) {
  EXPECT_EQ(to_string(Strategy::kNoLB), "Without LB");
  EXPECT_TRUE(is_work_stealing(Strategy::kRand8WS));
  EXPECT_TRUE(is_work_stealing(Strategy::kDiffusiveWS));
  EXPECT_FALSE(is_work_stealing(Strategy::kRepartition));
  EXPECT_EQ(steal_policy_of(Strategy::kRand8WS),
            loadbal::StealPolicyKind::kRandK);
  EXPECT_EQ(steal_policy_of(Strategy::kHybridWS),
            loadbal::StealPolicyKind::kHybrid);
}

// --- PRM workload + replay --------------------------------------------------

/// One out-of-range ClusterSpec field per entry; the replays must reject
/// each one and name it.
struct BadCluster {
  const char* field;
  void (*edit)(runtime::ClusterSpec&);
};
constexpr BadCluster kBadClusters[] = {
    {"cores_per_node", [](runtime::ClusterSpec& c) { c.cores_per_node = 0; }},
    {"local_latency_s",
     [](runtime::ClusterSpec& c) { c.local_latency_s = -1e-6; }},
    {"remote_latency_s",
     [](runtime::ClusterSpec& c) {
       c.remote_latency_s = std::numeric_limits<double>::infinity();
     }},
    {"bandwidth_bps", [](runtime::ClusterSpec& c) { c.bandwidth_bps = 0.0; }},
};

/// Run `replay` and expect an std::invalid_argument naming `field`.
template <typename Replay>
void expect_rejected(const Replay& replay, const char* field,
                     Strategy strategy) {
  try {
    replay();
    ADD_FAILURE() << field << " accepted under " << to_string(strategy);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

class PrmDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = env::med_cube().release();
    grid_ = new RegionGrid(
        RegionGrid::make_auto(env_->space().position_bounds(), 512, false));
    PrmWorkloadConfig cfg;
    cfg.total_attempts = 8192;
    cfg.seed = 5;
    workload_ = new Workload(build_prm_workload(*env_, *grid_, cfg));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete grid_;
    delete env_;
  }

  static env::Environment* env_;
  static RegionGrid* grid_;
  static Workload* workload_;
};

env::Environment* PrmDriverTest::env_ = nullptr;
RegionGrid* PrmDriverTest::grid_ = nullptr;
Workload* PrmDriverTest::workload_ = nullptr;

TEST_F(PrmDriverTest, WorkloadShape) {
  EXPECT_EQ(workload_->regions.size(), 512u);
  EXPECT_EQ(workload_->region_edges.size(),
            workload_->edge_profiles.size());
  EXPECT_GT(workload_->roadmap.num_vertices(), 1000u);
  EXPECT_GT(workload_->total_build_s(), 0.0);
  EXPECT_GT(workload_->total_sampling_s(), 0.0);
  // Every vertex is tagged with the region that generated it.
  for (std::uint32_t r = 0; r < 512; ++r)
    for (const auto v : workload_->region_vertices[r])
      EXPECT_EQ(workload_->roadmap.vertex(v).region, r);
}

TEST_F(PrmDriverTest, SamplesCountedPerRegion) {
  std::size_t total = 0;
  for (const auto& r : workload_->regions) total += r.samples;
  EXPECT_EQ(total, workload_->roadmap.num_vertices());
}

TEST_F(PrmDriverTest, BlockedRegionsGenerateFewerSamples) {
  const auto center = grid_->cell_of({50, 50, 50});
  const auto corner = grid_->cell_of({5, 5, 5});
  EXPECT_LT(workload_->regions[center].samples,
            workload_->regions[corner].samples);
}

TEST_F(PrmDriverTest, WorkloadDeterministic) {
  PrmWorkloadConfig cfg;
  cfg.total_attempts = 8192;
  cfg.seed = 5;
  const auto again = build_prm_workload(*env_, *grid_, cfg);
  EXPECT_EQ(again.roadmap.num_vertices(),
            workload_->roadmap.num_vertices());
  EXPECT_EQ(again.roadmap.num_edges(), workload_->roadmap.num_edges());
  for (std::size_t r = 0; r < again.regions.size(); ++r) {
    EXPECT_EQ(again.regions[r].samples, workload_->regions[r].samples);
    EXPECT_DOUBLE_EQ(again.regions[r].build_s,
                     workload_->regions[r].build_s);
  }
}

TEST_F(PrmDriverTest, NaiveAssignmentIsBlockContiguous) {
  const auto a = loadbal::partition_block(512, 8);
  EXPECT_EQ(a.size(), 512u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_EQ(a.back(), 7u);
}

TEST_F(PrmDriverTest, ZeroProcsThrowsInEveryBuild) {
  PrmRunConfig cfg;
  cfg.procs = 0;
  for (const Strategy s : {Strategy::kNoLB, Strategy::kRepartition,
                           Strategy::kHybridWS}) {
    cfg.strategy = s;
    EXPECT_THROW(simulate_prm_run(*workload_, cfg), std::invalid_argument)
        << to_string(s);
  }
}

TEST_F(PrmDriverTest, BadClusterThrowsInEveryBuild) {
  for (const Strategy s : {Strategy::kNoLB, Strategy::kRepartition,
                           Strategy::kHybridWS}) {
    for (const BadCluster& bad : kBadClusters) {
      PrmRunConfig cfg;
      cfg.procs = 4;
      cfg.strategy = s;
      bad.edit(cfg.cluster);
      expect_rejected([&] { simulate_prm_run(*workload_, cfg); }, bad.field,
                      s);
    }
  }
}

TEST_F(PrmDriverTest, RepartitioningImprovesBalanceAndTime) {
  PrmRunConfig no_lb;
  no_lb.procs = 16;
  no_lb.strategy = Strategy::kNoLB;
  const auto base = simulate_prm_run(*workload_, no_lb);

  PrmRunConfig repart = no_lb;
  repart.strategy = Strategy::kRepartition;
  const auto lb = simulate_prm_run(*workload_, repart);

  EXPECT_LT(lb.cv_nodes_after, base.cv_nodes_after);
  EXPECT_LT(lb.total_s, base.total_s);
  EXPECT_GT(lb.phases.redistribution_s, 0.0);
  EXPECT_EQ(base.phases.redistribution_s, 0.0);
  // NoLB never moves a region.
  EXPECT_EQ(base.assignment, loadbal::partition_block(512, 16));
}

TEST_F(PrmDriverTest, WorkStealingImprovesOverNoLB) {
  PrmRunConfig cfg;
  cfg.procs = 16;
  cfg.strategy = Strategy::kNoLB;
  const auto base = simulate_prm_run(*workload_, cfg);
  for (const Strategy s :
       {Strategy::kHybridWS, Strategy::kRand8WS, Strategy::kDiffusiveWS}) {
    cfg.strategy = s;
    const auto r = simulate_prm_run(*workload_, cfg);
    EXPECT_LT(r.total_s, base.total_s) << to_string(s);
    EXPECT_GT(r.ws.steal_grants, 0u) << to_string(s);
  }
}

TEST_F(PrmDriverTest, PhaseTotalsAddUp) {
  PrmRunConfig cfg;
  cfg.procs = 8;
  cfg.strategy = Strategy::kRepartition;
  const auto r = simulate_prm_run(*workload_, cfg);
  EXPECT_NEAR(r.total_s, r.phases.total(), 1e-12);
  EXPECT_GT(r.phases.node_connection_s, 0.0);
  EXPECT_GT(r.phases.region_connection_s, 0.0);
}

TEST_F(PrmDriverTest, NodesPerProcMatchesAssignment) {
  PrmRunConfig cfg;
  cfg.procs = 8;
  cfg.strategy = Strategy::kRepartition;
  const auto r = simulate_prm_run(*workload_, cfg);
  std::uint64_t total = 0;
  for (const auto n : r.nodes_per_proc) total += n;
  EXPECT_EQ(total, workload_->roadmap.num_vertices());
  ASSERT_EQ(r.assignment.size(), 512u);
  for (const auto owner : r.assignment) EXPECT_LT(owner, 8u);
}

TEST_F(PrmDriverTest, RemoteAccessesTrackEdgeCut) {
  PrmRunConfig cfg;
  cfg.procs = 16;
  cfg.strategy = Strategy::kNoLB;
  const auto base = simulate_prm_run(*workload_, cfg);
  EXPECT_GT(base.remote_region_graph, 0u);
  EXPECT_EQ(base.remote_region_graph,
            loadbal::edge_cut(workload_->region_edges, base.assignment));
}

TEST_F(PrmDriverTest, StrongScalingReducesTotalTime) {
  PrmRunConfig cfg;
  cfg.strategy = Strategy::kNoLB;
  double prev = 1e300;
  for (const std::uint32_t p : {4u, 16u, 64u}) {
    cfg.procs = p;
    const auto r = simulate_prm_run(*workload_, cfg);
    EXPECT_LT(r.total_s, prev);
    prev = r.total_s;
  }
}

// A measurement cut short by its deadline keeps whole regions only: each
// region is either measured in full, identical to the uncut measurement,
// or left empty. Regions run on threads, so which ones survive varies.
TEST_F(PrmDriverTest, CancelledMeasurementKeepsWholeRegions) {
  for (const double deadline_ms : {0.0, 2.0}) {
    runtime::CancelToken token(runtime::Deadline::after_ms(deadline_ms));
    PrmWorkloadConfig cfg;
    cfg.total_attempts = 8192;
    cfg.seed = 5;
    cfg.cancel = &token;
    const Workload cut = build_prm_workload(*env_, *grid_, cfg);
    std::size_t measured = 0;
    for (std::uint32_t r = 0; r < grid_->size(); ++r) {
      const RegionProfile& p = cut.regions[r];
      EXPECT_EQ(p.centroid, workload_->regions[r].centroid);
      if (p.bytes == 0) {
        EXPECT_TRUE(cut.region_vertices[r].empty()) << "region " << r;
        EXPECT_EQ(p.service_s(), 0.0) << "region " << r;
        continue;
      }
      ++measured;
      EXPECT_EQ(p.samples, workload_->regions[r].samples) << "region " << r;
      EXPECT_EQ(p.build_s, workload_->regions[r].build_s) << "region " << r;
      EXPECT_EQ(p.bytes, workload_->regions[r].bytes) << "region " << r;
    }
    EXPECT_EQ(measured, cut.regions_measured);
    EXPECT_EQ(cut.measurement_cancelled,
              cut.edge_profiles.size() < cut.region_edges.size());
    if (deadline_ms == 0.0) {
      EXPECT_TRUE(cut.measurement_cancelled);
      EXPECT_EQ(cut.regions_measured, 0u);
    }
  }
}

// --- RRT workload + replay ------------------------------------------------

class RrtDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = env::mixed(0.60).release();
    regions_ = new RadialRegions({50, 50, 50}, 45.0, 96, 4, 23, false);
    Xoshiro256ss rng(24);
    root_ = new cspace::Config(
        env_->space().at_position({50, 50, 50}, rng));
    RrtWorkloadConfig cfg;
    cfg.total_nodes = 3000;
    cfg.seed = 25;
    workload_ = new Workload(
        build_rrt_workload(*env_, *regions_, *root_, cfg));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete root_;
    delete regions_;
    delete env_;
  }

  static env::Environment* env_;
  static RadialRegions* regions_;
  static cspace::Config* root_;
  static Workload* workload_;
};

env::Environment* RrtDriverTest::env_ = nullptr;
RadialRegions* RrtDriverTest::regions_ = nullptr;
cspace::Config* RrtDriverTest::root_ = nullptr;
Workload* RrtDriverTest::workload_ = nullptr;

TEST_F(RrtDriverTest, WorkloadShape) {
  EXPECT_EQ(workload_->regions.size(), 96u);
  EXPECT_GT(workload_->roadmap.num_vertices(), 96u);
  EXPECT_GT(workload_->total_build_s(), 0.0);
  EXPECT_DOUBLE_EQ(workload_->total_sampling_s(), 0.0);
}

TEST_F(RrtDriverTest, ResultIsForest) {
  EXPECT_TRUE(graph::is_forest(workload_->roadmap));
}

TEST_F(RrtDriverTest, BranchWorkIsHeterogeneous) {
  const auto times = workload_->build_times();
  const auto s = summarize(times);
  EXPECT_GT(s.cv(), 0.1);  // mixed env: real imbalance across cones
}

TEST_F(RrtDriverTest, ZeroProcsThrowsInEveryBuild) {
  RrtRunConfig cfg;
  cfg.procs = 0;
  for (const Strategy s : {Strategy::kNoLB, Strategy::kRepartition,
                           Strategy::kHybridWS}) {
    cfg.strategy = s;
    EXPECT_THROW(simulate_rrt_run(*workload_, *env_, *regions_, cfg),
                 std::invalid_argument)
        << to_string(s);
  }
}

TEST_F(RrtDriverTest, BadClusterThrowsInEveryBuild) {
  for (const Strategy s : {Strategy::kNoLB, Strategy::kRepartition,
                           Strategy::kHybridWS}) {
    for (const BadCluster& bad : kBadClusters) {
      RrtRunConfig cfg;
      cfg.procs = 4;
      cfg.strategy = s;
      bad.edit(cfg.cluster);
      expect_rejected(
          [&] { simulate_rrt_run(*workload_, *env_, *regions_, cfg); },
          bad.field, s);
    }
  }
}

TEST_F(RrtDriverTest, WorkStealingImprovesOverNoLB) {
  RrtRunConfig cfg;
  cfg.procs = 16;
  cfg.strategy = Strategy::kNoLB;
  const auto base = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
  for (const Strategy s :
       {Strategy::kDiffusiveWS, Strategy::kHybridWS, Strategy::kRand8WS}) {
    cfg.strategy = s;
    const auto r = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
    EXPECT_LT(r.total_s, base.total_s) << to_string(s);
  }
}

TEST_F(RrtDriverTest, KRaysRepartitioningIsPoor) {
  // The paper's point: the k-rays weight estimate is weak; repartitioning
  // on it must not beat work stealing and typically loses to it.
  RrtRunConfig cfg;
  cfg.procs = 16;
  cfg.strategy = Strategy::kRepartition;
  const auto repart = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
  EXPECT_GT(repart.redistribution_s, 0.0);
  // Correlation is far from perfect.
  EXPECT_LT(repart.weight_correlation, 0.95);
  cfg.strategy = Strategy::kDiffusiveWS;
  const auto ws = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
  EXPECT_GT(repart.total_s, ws.total_s);
}

TEST_F(RrtDriverTest, DeterministicReplay) {
  RrtRunConfig cfg;
  cfg.procs = 8;
  cfg.strategy = Strategy::kHybridWS;
  const auto a = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
  const auto b = simulate_rrt_run(*workload_, *env_, *regions_, cfg);
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.assignment, b.assignment);
}

// --- golden workloads ------------------------------------------------------
// One small PRM and one small RRT workload, hashed over everything the
// replay reads: every RegionProfile and EdgeProfile field, the per-region
// vertex lists, and the roadmap as a vertex list plus a sorted edge set.
// How the regions are executed (serially, on threads, in which order)
// must not move these hashes; what they compute must.

/// FNV-1a over the bytes of each added value, in call order.
struct FieldHash {
  std::uint64_t h = kFnvOffset;
  template <typename T>
  void add(const T& v) {
    h = fnv1a64(&v, sizeof v, h);
  }
  void add_counts(const runtime::WorkCounts& c) {
    runtime::WorkCounts::for_each_field(
        [&](const char*, auto field) { add(c.*field); });
  }
};

std::uint64_t workload_hash(const Workload& w) {
  FieldHash f;
  f.add(static_cast<std::uint64_t>(w.regions.size()));
  for (const RegionProfile& r : w.regions) {
    f.add(r.sampling_s);
    f.add(r.build_s);
    f.add_counts(r.sampling_ops);
    f.add_counts(r.build_ops);
    f.add(r.samples);
    f.add(r.bytes);
    f.add(r.centroid.x);
    f.add(r.centroid.y);
    f.add(r.centroid.z);
  }
  f.add(static_cast<std::uint64_t>(w.edge_profiles.size()));
  for (const EdgeProfile& ep : w.edge_profiles) {
    f.add(ep.a);
    f.add(ep.b);
    f.add(ep.service_s);
    f.add(ep.vertex_reads);
    f.add(ep.bytes_touched);
    f.add(ep.edges_added);
  }
  for (const auto& ids : w.region_vertices) {
    f.add(static_cast<std::uint64_t>(ids.size()));
    for (const graph::VertexId v : ids) f.add(v);
  }
  const planner::Roadmap& g = w.roadmap;
  f.add(static_cast<std::uint64_t>(g.num_vertices()));
  std::vector<std::tuple<graph::VertexId, graph::VertexId, double>> edges;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    f.add(g.vertex(v).region);
    f.add(static_cast<std::uint64_t>(g.vertex(v).cfg.size()));
    for (const double x : g.vertex(v).cfg) f.add(x);
    for (const auto& he : g.edges_of(v))
      if (v < he.to) edges.emplace_back(v, he.to, he.prop.length);
  }
  std::sort(edges.begin(), edges.end());
  f.add(static_cast<std::uint64_t>(edges.size()));
  for (const auto& [u, v, length] : edges) {
    f.add(u);
    f.add(v);
    f.add(length);
  }
  return f.h;
}

TEST(GoldenWorkloads, Prm) {
  const auto e = env::med_cube();
  const RegionGrid grid =
      RegionGrid::make_auto(e->space().position_bounds(), 64, false);
  PrmWorkloadConfig cfg;
  cfg.total_attempts = 4096;
  cfg.seed = 7;
  const Workload w = build_prm_workload(*e, grid, cfg);
  EXPECT_EQ(w.regions_measured, 64u);
  EXPECT_EQ(w.roadmap.num_vertices(), 1889u);
  EXPECT_EQ(w.roadmap.num_edges(), 1887u);
  EXPECT_EQ(workload_hash(w), 0xd36e14b5e9b49c51ull);
}

TEST(GoldenWorkloads, Rrt) {
  const auto e = env::mixed(0.30);
  const RadialRegions regions({50, 50, 50}, 45.0, 64, 4, 81, false);
  Xoshiro256ss rng(82);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  RrtWorkloadConfig cfg;
  cfg.total_nodes = 2048;
  cfg.seed = 83;
  const Workload w = build_rrt_workload(*e, regions, root, cfg);
  EXPECT_EQ(w.regions_measured, 64u);
  EXPECT_EQ(w.roadmap.num_vertices(), 1997u);
  EXPECT_EQ(w.roadmap.num_edges(), 1996u);
  EXPECT_EQ(workload_hash(w), 0x303b12fe945d4d24ull);
}

// --- parallel build -----------------------------------------------------

TEST(ParallelBuild, WorkStealingStatsPopulated) {
  const auto e = env::med_cube();
  const RegionGrid grid =
      RegionGrid::make_auto(e->space().position_bounds(), 27, false);
  ParallelPrmConfig cfg;
  cfg.total_attempts = 1024;
  cfg.workers = 4;
  const auto r = parallel_build_prm(*e, grid, cfg);
  EXPECT_EQ(r.workers.size(), 4u);
  std::uint64_t executed = 0;
  for (const auto& w : r.workers)
    executed += w.executed_local + w.executed_stolen;
  EXPECT_EQ(executed, 27u);
}

}  // namespace
}  // namespace pmpl::core
