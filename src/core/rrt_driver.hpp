#pragma once
/// \file rrt_driver.hpp
/// Uniform-radial-subdivision parallel RRT (Algorithm 2) with load
/// balancing: workload measurement and schedule replay.
///
/// Each radial region grows one subtree biased toward its target ray;
/// branches of adjacent regions are then connected (cycles pruned). Work
/// stealing moves whole regions between locations (Algorithm 3); the
/// repartitioning variant weights regions with the k-random-rays probe —
/// the estimator the paper shows to be poor (Fig 10b).

#include "core/profile.hpp"
#include "core/radial_regions.hpp"
#include "core/strategies.hpp"
#include "env/environment.hpp"
#include "loadbal/ws_engine.hpp"

namespace pmpl::core {

/// Workload-construction parameters.
struct RrtWorkloadConfig {
  std::size_t total_nodes = 1 << 13;  ///< N tree nodes overall
  std::uint64_t seed = 1;
  /// Cooperative stop: measurement ends after the current granule and the
  /// workload comes back partial (see Workload::regions_measured).
  const runtime::CancelToken* cancel = nullptr;
};

/// Execute Algorithm 2's computation: grow every regional branch from the
/// shared root through the same region task as parallel_build_rrt, on one
/// worker per hardware thread, then connect adjacent branches (pruning
/// cycles so the result stays a forest).
Workload build_rrt_workload(const env::Environment& e,
                            const RadialRegions& regions,
                            const cspace::Config& root,
                            const RrtWorkloadConfig& config);

/// Replay parameters. Strategy kRepartition here means "repartition using
/// the k-random-rays weight estimate" (there is no cheap exact weight for
/// RRT — paper §III-B).
struct RrtRunConfig {
  std::uint32_t procs = 16;
  runtime::ClusterSpec cluster = runtime::ClusterSpec::opteron_cluster();
  Strategy strategy = Strategy::kNoLB;
  std::uint64_t seed = 1;
};

/// Replay outcome.
struct RrtRunResult {
  double total_s = 0.0;
  double redistribution_s = 0.0;  ///< probe + partition + migration
  double growth_s = 0.0;          ///< branch-growth phase
  double branch_connection_s = 0.0;
  loadbal::Assignment assignment;
  std::vector<double> load_profile_s;
  double cv_nodes_before = 0.0;
  double cv_nodes_after = 0.0;
  loadbal::WsResult ws;
  /// Pearson correlation between the k-rays weight and true branch cost
  /// (reported to show why the estimator fails); 0 when not computed.
  double weight_correlation = 0.0;
};

/// Replay `workload` under `config`. The environment is needed again only
/// for the k-rays probe (kRepartition). Throws std::invalid_argument when
/// `config.procs` is 0 (checked in every build).
RrtRunResult simulate_rrt_run(const Workload& workload,
                              const env::Environment& e,
                              const RadialRegions& regions,
                              const RrtRunConfig& config);

}  // namespace pmpl::core
