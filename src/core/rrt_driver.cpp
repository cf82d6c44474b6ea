#include "core/rrt_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel_build_rrt.hpp"
#include "core/region_weight.hpp"
#include "loadbal/bulk_sync.hpp"
#include "loadbal/partition.hpp"

namespace pmpl::core {

namespace {

/// Probe rays per region of kRepartition's k-rays weight estimate.
constexpr std::size_t kProbeRays = 16;

double pearson(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

Workload build_rrt_workload(const env::Environment& e,
                            const RadialRegions& regions,
                            const cspace::Config& root,
                            const RrtWorkloadConfig& config) {
  Workload w;
  const std::size_t nr = regions.size();
  w.regions.resize(nr);
  for (std::uint32_t r = 0; r < nr; ++r)
    w.regions[r].centroid = regions.centroid(r);
  w.region_edges = regions.adjacency_edges();
  const geo::Vec3 r3{regions.radius(), regions.radius(), regions.radius()};
  w.bounds = {regions.root() - r3, regions.root() + r3};

  ParallelRrtConfig task;
  task.total_nodes = config.total_nodes;
  task.seed = config.seed;
  task.anytime.cancel = config.cancel;

  // Branch connection along the region graph must not close cycles
  // (Algorithm 2 lines 13-18). Branches are trees, so an inter-branch edge
  // closes a cycle exactly when its endpoints are already in one connected
  // component: skipping same-component attempts keeps the result a forest
  // (the "prune" of Algorithm 2 realized as prune-before-insert).
  WorkloadMeasure m;
  m.connect.params.resolution = kRrtParams.resolution;
  m.connect.params.skip_same_component = true;
  m.connect.max_attempts = kRrtBoundaryAttempts;
  m.vertex_bytes = 20;  // tree-node record beyond its config
  m.cancel = config.cancel;
  measure_workload(e, rrt_region_task(e, regions, root, task), m, w);
  return w;
}

RrtRunResult simulate_rrt_run(const Workload& w, const env::Environment& e,
                              const RadialRegions& regions,
                              const RrtRunConfig& config) {
  if (config.procs == 0)
    throw std::invalid_argument("simulate_rrt_run: procs must be > 0");
  config.cluster.validate("simulate_rrt_run");
  const std::size_t nr = w.regions.size();
  RrtRunResult out;

  const loadbal::Assignment initial =
      loadbal::partition_block(nr, config.procs);
  out.cv_nodes_before =
      cv_of_counts(nodes_per_processor(w, initial, config.procs));

  if (is_work_stealing(config.strategy)) {
    std::vector<loadbal::WsItem> items(nr);
    for (std::size_t r = 0; r < nr; ++r)
      items[r] = {w.regions[r].build_s, w.regions[r].bytes};
    loadbal::WsConfig ws_cfg;
    ws_cfg.policy = steal_policy_of(config.strategy);
    ws_cfg.cluster = config.cluster;
    ws_cfg.seed = config.seed;
    out.ws = loadbal::simulate_work_stealing(items, initial, config.procs,
                                             ws_cfg);
    out.assignment = out.ws.final_owner;
    out.growth_s = out.ws.makespan_s;
    out.load_profile_s = out.ws.busy_s;
  } else {
    loadbal::Assignment assignment = initial;
    if (config.strategy == Strategy::kRepartition) {
      // Probe with k random rays — both the probe cost and the (poorly
      // correlated) weights it yields are charged to this strategy.
      std::uint64_t ray_casts = 0;
      const auto weights =
          weights_k_rays(e, regions, kProbeRays, config.seed, &ray_casts);
      out.weight_correlation = pearson(weights, w.build_times());

      assignment = loadbal::partition_sfc(weights, w.centroids(), w.bounds,
                                          config.procs);

      runtime::WorkCounts probe;
      probe.ray_casts = ray_casts;
      // The probes run in parallel, one share per processor.
      const double probe_s =
          runtime::CostModel::paper_fidelity().seconds(probe) / config.procs;
      out.redistribution_s =
          probe_s + loadbal::redistribution_time(w.region_bytes(), initial,
                                                 assignment, config.procs,
                                                 config.cluster);
    }
    const auto phase = loadbal::static_phase(w.build_times(), assignment,
                                             config.procs, config.cluster);
    out.growth_s = phase.time_s;
    out.load_profile_s = phase.busy_s;
    out.assignment = std::move(assignment);
  }

  // Branch-connection phase (same accounting as PRM region connection).
  out.branch_connection_s =
      replay_region_connection(w, out.assignment, config.procs,
                               config.cluster)
          .time_s;
  out.cv_nodes_after =
      cv_of_counts(nodes_per_processor(w, out.assignment, config.procs));

  out.total_s = out.redistribution_s + out.growth_s + out.branch_connection_s;
  return out;
}

}  // namespace pmpl::core
