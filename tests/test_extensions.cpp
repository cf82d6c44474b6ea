// Tests for the library extensions: sampling strategies, lifeline work
// stealing and the threaded RRT build.

#include <gtest/gtest.h>

#include "core/parallel_build.hpp"
#include "core/parallel_build_rrt.hpp"
#include "core/prm_driver.hpp"
#include "core/rrt_driver.hpp"
#include "graph/tree_utils.hpp"
#include "env/builders.hpp"
#include "loadbal/partition.hpp"
#include "loadbal/ws_engine.hpp"
#include "planner/prm.hpp"
#include "planner/samplers.hpp"
#include "util/rng.hpp"

namespace pmpl {
namespace {

// --- samplers ------------------------------------------------------------

TEST(Samplers, UniformProducesValidInBox) {
  const auto e = env::med_cube();
  planner::UniformSampler sampler(e->space(), e->validity());
  planner::PlannerStats stats;
  Xoshiro256ss rng(1);
  const geo::Aabb box{{0, 0, 0}, {40, 40, 40}};
  int kept = 0;
  for (int i = 0; i < 300; ++i) {
    cspace::Config c;
    if (!sampler.sample(box, rng, c, stats)) continue;
    ++kept;
    EXPECT_TRUE(box.contains(e->space().position(c)));
    EXPECT_TRUE(e->validity().valid(c));
  }
  EXPECT_GT(kept, 0);
  EXPECT_EQ(stats.samples_attempted, 300u);
  EXPECT_EQ(stats.samples_valid, static_cast<std::uint64_t>(kept));
}

TEST(Samplers, GaussianOutputsAreValid) {
  const auto e = env::med_cube();
  planner::GaussianSampler sampler(e->space(), e->validity(), 6.0);
  planner::PlannerStats stats;
  Xoshiro256ss rng(2);
  const geo::Aabb box = e->space().position_bounds();
  int kept = 0;
  for (int i = 0; i < 2000 && kept < 30; ++i) {
    cspace::Config c;
    if (sampler.sample(box, rng, c, stats)) {
      ++kept;
      EXPECT_TRUE(e->validity().valid(c));
    }
  }
  EXPECT_GT(kept, 0);
}

TEST(Samplers, GaussianConcentratesNearObstacle) {
  // med-cube obstacle spans roughly [19, 81]^3; near-surface samples sit
  // within the robot-inflated band around it.
  const auto e = env::med_cube();
  planner::GaussianSampler gaussian(e->space(), e->validity(), 4.0);
  planner::UniformSampler uniform(e->space(), e->validity());
  planner::PlannerStats stats;
  Xoshiro256ss rng(3);
  const geo::Aabb box = e->space().position_bounds();

  auto near_surface_fraction = [&](planner::Sampler& s, int want) {
    int kept = 0, near = 0;
    for (int i = 0; i < 20000 && kept < want; ++i) {
      cspace::Config c;
      if (!s.sample(box, rng, c, stats)) continue;
      ++kept;
      // Distance from the position to the (uninflated) obstacle box.
      const geo::Aabb cube{{19.07, 19.07, 19.07}, {81.0, 81.0, 81.0}};
      const double d = std::sqrt(geo::distance2(e->space().position(c), cube));
      if (d < 25.0) ++near;
    }
    return kept ? double(near) / kept : 0.0;
  };
  const double g_frac = near_surface_fraction(gaussian, 60);
  const double u_frac = near_surface_fraction(uniform, 200);
  EXPECT_GT(g_frac, u_frac);
}

TEST(Samplers, BridgeTestFindsNarrowCorridor) {
  // A narrow slot between two blocks: bridge-test samples land inside it.
  std::vector<collision::ObstacleShape> obs{
      geo::Aabb{{40, 0, 0}, {48, 100, 100}},
      geo::Aabb{{52, 0, 0}, {60, 100, 100}}};
  env::Environment e("slot", cspace::CSpace::se3({{0, 0, 0},
                                                  {100, 100, 100}}),
                     std::move(obs), collision::RigidBody::box({1, 1, 1}));
  planner::BridgeTestSampler sampler(e.space(), e.validity(), 14.0);
  planner::PlannerStats stats;
  Xoshiro256ss rng(4);
  const geo::Aabb box = e.space().position_bounds();
  int kept = 0, in_slot = 0;
  for (int i = 0; i < 50000 && kept < 40; ++i) {
    cspace::Config c;
    if (!sampler.sample(box, rng, c, stats)) continue;
    ++kept;
    const double x = e.space().position(c).x;
    if (x > 47.0 && x < 53.0) ++in_slot;
  }
  ASSERT_GT(kept, 0);
  // The slot is 4% of the x-range; bridge sampling should hit it far more
  // often than that.
  EXPECT_GT(double(in_slot) / kept, 0.3);
}

TEST(Samplers, FactoryCoversAllKinds) {
  const auto e = env::free_env();
  for (const auto kind :
       {planner::SamplerKind::kUniform, planner::SamplerKind::kGaussian,
        planner::SamplerKind::kBridgeTest}) {
    const auto s = planner::make_sampler(kind, e->space(), e->validity(), 5.0);
    ASSERT_NE(s, nullptr);
  }
}

TEST(Samplers, DeterministicPerSeed) {
  const auto e = env::med_cube();
  planner::GaussianSampler sampler(e->space(), e->validity(), 5.0);
  planner::PlannerStats s1, s2;
  Xoshiro256ss r1(9), r2(9);
  for (int i = 0; i < 200; ++i) {
    cspace::Config a, b;
    const bool ka = sampler.sample(e->space().position_bounds(), r1, a, s1);
    const bool kb = sampler.sample(e->space().position_bounds(), r2, b, s2);
    ASSERT_EQ(ka, kb);
    if (ka) {
      EXPECT_EQ(a, b);
    }
  }
}

// --- lifeline work stealing -------------------------------------------------

TEST(Lifeline, AllWorkExecutedOnce) {
  const std::size_t n = 128;
  std::vector<loadbal::WsItem> items(n, {1e-3, 500});
  const std::vector<std::uint32_t> initial(n, 0);
  loadbal::WsConfig cfg;
  cfg.policy = loadbal::StealPolicyKind::kLifeline;
  const auto r = loadbal::simulate_work_stealing(items, initial, 16, cfg);
  std::uint64_t executed = 0;
  for (std::uint32_t p = 0; p < 16; ++p)
    executed += r.local_tasks[p] + r.stolen_tasks[p];
  EXPECT_EQ(executed, n);
  EXPECT_GT(r.steal_grants, 0u);
}

TEST(Lifeline, ImprovesHotspotMakespan) {
  const std::size_t n = 256;
  std::vector<loadbal::WsItem> items(n, {1e-3, 500});
  const std::vector<std::uint32_t> initial(n, 0);
  loadbal::WsConfig cfg;
  cfg.policy = loadbal::StealPolicyKind::kLifeline;
  const auto r = loadbal::simulate_work_stealing(items, initial, 16, cfg);
  EXPECT_LT(r.makespan_s, 0.9 * 256e-3);
}

TEST(Lifeline, FewerRequestsThanActiveProbing) {
  // Lifeline thieves stop probing after registration; hybrid thieves keep
  // retrying. Same workload, lifeline must need fewer requests.
  const auto e = env::med_cube();
  const std::size_t n = 512;
  Xoshiro256ss rng(15);
  std::vector<loadbal::WsItem> items(n);
  for (auto& item : items) item = {rng.uniform(1e-4, 2e-3), 500};
  const auto initial = loadbal::partition_block(n, 64);
  loadbal::WsConfig lifeline;
  lifeline.policy = loadbal::StealPolicyKind::kLifeline;
  loadbal::WsConfig hybrid;
  hybrid.policy = loadbal::StealPolicyKind::kHybrid;
  hybrid.give_up_after = 12;
  const auto rl = loadbal::simulate_work_stealing(items, initial, 64,
                                                  lifeline);
  const auto rh = loadbal::simulate_work_stealing(items, initial, 64,
                                                  hybrid);
  EXPECT_LT(rl.steal_requests, rh.steal_requests);
  // And stays competitive on makespan (within 25%).
  EXPECT_LT(rl.makespan_s, 1.25 * rh.makespan_s);
}

TEST(Lifeline, DeterministicPerSeed) {
  std::vector<loadbal::WsItem> items(64, {5e-4, 100});
  const std::vector<std::uint32_t> initial(64, 3);
  loadbal::WsConfig cfg;
  cfg.policy = loadbal::StealPolicyKind::kLifeline;
  cfg.seed = 77;
  const auto a = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  const auto b = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.final_owner, b.final_owner);
}

TEST(Lifeline, HypercubeVictims) {
  loadbal::StealPolicy policy(loadbal::StealPolicyKind::kLifeline, 16);
  Xoshiro256ss rng(16);
  const auto v = policy.victims(5, 0, rng);  // 5 = 0101
  // XOR with 1,2,4,8: 4, 7, 1, 13.
  EXPECT_EQ(v, (std::vector<std::uint32_t>{4, 7, 1, 13}));
  // Ragged pool: victims beyond p are dropped.
  loadbal::StealPolicy ragged(loadbal::StealPolicyKind::kLifeline, 10);
  const auto rv = ragged.victims(3, 0, rng);  // 3^8=11 >= 10 dropped
  for (const auto x : rv) EXPECT_LT(x, 10u);
}

// --- samplers through the parallel workload builder ----------------------

TEST(SamplersInWorkload, KindChangesRoadmap) {
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 216, false);
  core::PrmWorkloadConfig uniform;
  uniform.total_attempts = 4096;
  uniform.seed = 33;
  core::PrmWorkloadConfig gaussian = uniform;
  gaussian.prm.sampler = planner::SamplerKind::kGaussian;
  gaussian.prm.sampler_scale = 5.0;
  const auto wu = core::build_prm_workload(*e, grid, uniform);
  const auto wg = core::build_prm_workload(*e, grid, gaussian);
  // Gaussian keeps fewer nodes per attempt and costs more CD per node.
  EXPECT_LT(wg.roadmap.num_vertices(), wu.roadmap.num_vertices());
  EXPECT_GT(wg.roadmap.num_vertices(), 0u);
}

TEST(SamplersInWorkload, ThreadedBuildHonoursSampler) {
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 64, false);
  core::ParallelPrmConfig uniform;
  uniform.total_attempts = 2048;
  uniform.workers = 4;
  uniform.seed = 35;
  core::ParallelPrmConfig gaussian = uniform;
  gaussian.prm.sampler = planner::SamplerKind::kGaussian;
  gaussian.prm.sampler_scale = 5.0;
  const auto pu = core::parallel_build_prm(*e, grid, uniform);
  const auto pg = core::parallel_build_prm(*e, grid, gaussian);

  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = gaussian.total_attempts;
  wcfg.prm = gaussian.prm;
  wcfg.seed = gaussian.seed;
  const auto wg = core::build_prm_workload(*e, grid, wcfg);

  const auto vertices = [](const planner::Roadmap& g) {
    std::vector<cspace::Config> v;
    for (graph::VertexId i = 0; i < g.num_vertices(); ++i)
      v.push_back(g.vertex(i).cfg);
    return v;
  };
  EXPECT_NE(vertices(pg.roadmap), vertices(pu.roadmap));
  EXPECT_EQ(vertices(pg.roadmap), vertices(wg.roadmap));
}

// --- lifeline strategy through the PRM driver -----------------------------

TEST(LifelineInDriver, CompetitiveWithHybrid) {
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 1000, false);
  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = 16384;
  wcfg.seed = 34;
  const auto w = core::build_prm_workload(*e, grid, wcfg);
  core::PrmRunConfig cfg;
  cfg.procs = 64;
  cfg.strategy = core::Strategy::kNoLB;
  const auto base = core::simulate_prm_run(w, cfg);
  cfg.strategy = core::Strategy::kLifelineWS;
  const auto lifeline = core::simulate_prm_run(w, cfg);
  cfg.strategy = core::Strategy::kHybridWS;
  const auto hybrid = core::simulate_prm_run(w, cfg);
  EXPECT_LT(lifeline.total_s, base.total_s);
  EXPECT_LT(lifeline.total_s, 1.25 * hybrid.total_s);
  EXPECT_GT(lifeline.ws.steal_grants, 0u);
}

// --- parallel RRT build ----------------------------------------------------

TEST(ParallelRrt, MatchesSequentialWorkloadForest) {
  const auto e = env::mixed(0.30);
  const core::RadialRegions regions({50, 50, 50}, 45.0, 64, 4, 51, false);
  Xoshiro256ss rng(52);
  const auto root = e->space().at_position({50, 50, 50}, rng);

  core::ParallelRrtConfig pcfg;
  pcfg.total_nodes = 2000;
  pcfg.workers = 4;
  pcfg.seed = 53;
  const auto par = core::parallel_build_rrt(*e, regions, root, pcfg);
  EXPECT_TRUE(graph::is_forest(par.roadmap));

  core::RrtWorkloadConfig wcfg;
  wcfg.total_nodes = 2000;
  wcfg.seed = 53;
  const auto seq = core::build_rrt_workload(*e, regions, root, wcfg);
  // Branch growth is seed-deterministic: same per-region node counts.
  ASSERT_EQ(par.region_vertices.size(), seq.region_vertices.size());
  for (std::size_t r = 0; r < regions.size(); ++r)
    EXPECT_EQ(par.region_vertices[r].size(), seq.region_vertices[r].size())
        << "region " << r;
}

TEST(ParallelRrt, WorkerStatsAccountForAllBranches) {
  const auto e = env::free_env();
  const core::RadialRegions regions({50, 50, 50}, 40.0, 48, 4, 54, false);
  Xoshiro256ss rng(55);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  core::ParallelRrtConfig cfg;
  cfg.total_nodes = 1000;
  cfg.workers = 3;
  const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
  std::uint64_t executed = 0;
  for (const auto& w : r.workers)
    executed += w.executed_local + w.executed_stolen;
  EXPECT_EQ(executed, 48u);
  EXPECT_GT(r.roadmap.num_vertices(), 48u);
}

}  // namespace
}  // namespace pmpl
