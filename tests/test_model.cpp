// Tests for model/: the analytic §IV-B model environment.

#include <gtest/gtest.h>

#include <numeric>

#include "model/model_env.hpp"

namespace pmpl::model {
namespace {

/// Exact free area per region (x-major ordering, matching RegionGrid): the
/// naive mapping with one region per processor.
std::vector<double> region_vfree(const ModelEnvironment& m) {
  return m.naive_load(static_cast<std::uint32_t>(m.num_regions()));
}

TEST(ModelEnv, TotalFreeAreaMatchesBlockedFraction) {
  for (const double blocked : {0.0, 0.1, 0.25, 0.5}) {
    const ModelEnvironment m(blocked, 20);
    const auto vfree = region_vfree(m);
    const double total = std::accumulate(vfree.begin(), vfree.end(), 0.0);
    EXPECT_NEAR(total, 1.0 - blocked, 1e-9) << "blocked=" << blocked;
  }
}

TEST(ModelEnv, CenterRegionsAreBlocked) {
  const ModelEnvironment m(0.25, 8);
  const auto vfree = region_vfree(m);
  // Obstacle spans [0.25, 0.75]^2; cell (3,3) covers [0.375,0.5]^2 — fully
  // inside.
  EXPECT_NEAR(vfree[3 * 8 + 3], 0.0, 1e-12);
  // Corner cell fully free: area (1/8)^2.
  EXPECT_NEAR(vfree[0], 1.0 / 64.0, 1e-12);
}

TEST(ModelEnv, PartialOverlapCells) {
  const ModelEnvironment m(0.25, 4);
  const auto vfree = region_vfree(m);
  // Cell (1,1) covers [0.25,0.5]^2, fully inside obstacle [0.25,0.75]^2.
  EXPECT_NEAR(vfree[1 * 4 + 1], 0.0, 1e-12);
  // Cell (0,1) covers x[0,0.25], y[0.25,0.5]: free.
  EXPECT_NEAR(vfree[0 * 4 + 1], 1.0 / 16.0, 1e-12);
}

TEST(ModelEnv, FreeEnvironmentHasZeroCv) {
  const ModelEnvironment m(0.0, 16);
  for (const std::uint32_t p : {2u, 4u, 8u}) {
    EXPECT_NEAR(m.cv_naive(p), 0.0, 1e-9) << p;
    EXPECT_NEAR(m.cv_best(p), 0.0, 1e-9) << p;
  }
}

TEST(ModelEnv, CenteredObstacleBalancedAtTwoProcs) {
  // Columns split symmetrically: the naive halves carry equal V_free.
  const ModelEnvironment m(0.25, 16);
  EXPECT_NEAR(m.cv_naive(2), 0.0, 1e-9);
}

TEST(ModelEnv, ImbalanceGrowsWithProcessorCount) {
  // Column partitions of the centered-square model are self-similar while
  // whole columns are assigned (CV constant); once parts are finer than a
  // column, blocked and free halves of a column separate and CV rises.
  const ModelEnvironment m(0.25, 32);
  EXPECT_NEAR(m.cv_naive(16), m.cv_naive(4), 1e-9);
  EXPECT_GT(m.cv_naive(64), m.cv_naive(16));
}

TEST(ModelEnv, BestPartitionNeverWorseThanNaive) {
  const ModelEnvironment m(0.25, 32);
  for (const std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_LE(m.cv_best(p), m.cv_naive(p) + 1e-9) << "p=" << p;
    EXPECT_GE(m.max_load_improvement_pct(p), -1e-9) << "p=" << p;
    EXPECT_LE(m.max_load_improvement_pct(p), 100.0) << "p=" << p;
  }
}

TEST(ModelEnv, GreedyNearlyBalances) {
  const ModelEnvironment m(0.25, 32);
  // 1024 regions over 8 parts: greedy LPT gets within a few percent.
  EXPECT_LT(m.cv_best(8), 0.05);
}

TEST(ModelEnv, ImprovementShrinksAtHighCoreCounts) {
  // The paper's granularity effect: with fewer regions per processor the
  // best partition can do less (relative to its low-p improvement).
  const ModelEnvironment m(0.25, 16);  // 256 regions
  const double low_p = m.max_load_improvement_pct(8);
  const double high_p = m.max_load_improvement_pct(128);
  EXPECT_LT(high_p, low_p + 1e-9);
}

TEST(ModelEnv, LoadVectorsHaveRightShape) {
  const ModelEnvironment m(0.3, 10);
  const auto naive = m.naive_load(5);
  const auto best = m.best_load(5);
  EXPECT_EQ(naive.size(), 5u);
  EXPECT_EQ(best.size(), 5u);
  const double sum_naive = std::accumulate(naive.begin(), naive.end(), 0.0);
  const double sum_best = std::accumulate(best.begin(), best.end(), 0.0);
  EXPECT_NEAR(sum_naive, sum_best, 1e-9);
}

}  // namespace
}  // namespace pmpl::model
