#include "core/rrt_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/region_weight.hpp"
#include "cspace/config.hpp"
#include "graph/union_find.hpp"
#include "loadbal/bulk_sync.hpp"
#include "loadbal/partition.hpp"
#include "planner/prm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pmpl::core {

namespace {

std::uint64_t branch_payload_bytes(const planner::Roadmap& g,
                                   std::span<const graph::VertexId> ids) {
  std::uint64_t bytes = 64;
  for (const graph::VertexId v : ids)
    bytes += cspace::config_bytes(g.vertex(v).cfg) + 20;
  return bytes;
}

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
  w.region_vertices.resize(nr);
  w.region_edges = regions.adjacency_edges();
  const geo::Vec3 r3{regions.radius(), regions.radius(), regions.radius()};
  w.bounds = {regions.root() - r3, regions.root() + r3};

  const std::size_t quota = std::max<std::size_t>(2, config.total_nodes / nr);

  // Grow one branch per region (deterministic per-region streams). A fired
  // cancel token stops between iterations; the interrupted branch's
  // profile stays zero-initialized (its partial tree keeps the roadmap
  // valid but is not counted as measured).
  for (std::uint32_t r = 0; r < nr; ++r) {
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;
    }
    RegionProfile& profile = w.regions[r];
    profile.centroid = regions.centroid(r);

    planner::RrtParams params = config.rrt;
    params.max_nodes = quota;
    params.max_iterations = config.iteration_factor * quota;

    planner::PlannerStats stats;
    planner::RrtBranch branch(e, w.roadmap, root, r, params);
    Xoshiro256ss rng(derive_seed(config.seed, r));
    branch.grow(
        [&](Xoshiro256ss& g) {
          const geo::Vec3 p = regions.sample_in_cone(r, g, config.cone_overlap);
          return e.space().at_position(p, g);
        },
        rng, stats, config.cancel);
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;
    }

    profile.build_ops = to_work_counts(stats);
    profile.build_s = config.costs.seconds(profile.build_ops);
    profile.samples = static_cast<std::uint32_t>(branch.num_nodes());
    w.region_vertices[r] = branch.node_ids();
    profile.bytes = branch_payload_bytes(w.roadmap, branch.node_ids());
    ++w.regions_measured;
  }

  // Branch connection along the region graph; new edges must not close
  // cycles (Algorithm 2 lines 13-18).
  planner::PrmParams connect_params;
  connect_params.resolution = config.rrt.resolution;
  // Cycle pruning: branches are trees, so an inter-branch edge closes a
  // cycle exactly when its endpoints are already in one connected
  // component. Skipping same-component attempts keeps the result a forest
  // (the "prune" of Algorithm 2 realized as prune-before-insert).
  connect_params.skip_same_component = true;
  graph::UnionFind cc(w.roadmap.num_vertices());
  for (graph::VertexId v = 0; v < w.roadmap.num_vertices(); ++v)
    for (const auto& he : w.roadmap.edges_of(v)) cc.unite(v, he.to);
  w.edge_profiles.reserve(w.region_edges.size());
  for (const auto& [a, b] : w.region_edges) {
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;  // edge_profiles stays a measured prefix of region_edges
    }
    EdgeProfile ep;
    ep.a = a;
    ep.b = b;
    planner::PlannerStats stats;
    planner::Roadmap& g = w.roadmap;
    const auto added = planner::connect_between(
        e, g, w.region_vertices[a], w.region_vertices[b], connect_params,
        stats, &cc, config.max_boundary_attempts);
    ep.edges_added = static_cast<std::uint32_t>(added);
    ep.service_s = config.costs.seconds(to_work_counts(stats));
    const auto& remote_side = w.region_vertices[b];
    ep.vertex_reads = static_cast<std::uint32_t>(remote_side.size());
    std::uint64_t bytes = 0;
    for (const graph::VertexId v : remote_side)
      bytes += cspace::config_bytes(g.vertex(v).cfg);
    ep.bytes_touched = bytes;
    w.edge_profiles.push_back(ep);
  }
  return w;
}

RrtRunResult simulate_rrt_run(const Workload& w, const env::Environment& e,
                              const RadialRegions& regions,
                              const RrtRunConfig& config) {
  assert(config.procs > 0);
  const std::size_t nr = w.regions.size();
  RrtRunResult out;

  const loadbal::Assignment initial =
      loadbal::partition_block(nr, config.procs);
  {
    std::vector<double> nodes(config.procs, 0.0);
    for (std::size_t r = 0; r < nr; ++r)
      nodes[initial[r]] += w.regions[r].samples;
    out.cv_nodes_before = summarize(nodes).cv();
  }

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
      const auto weights = weights_k_rays(e, regions, config.k_rays,
                                          config.seed, &ray_casts);
      out.weight_correlation = pearson(weights, w.build_times());

      const auto centroids = w.centroids();
      const loadbal::PartitionProblem problem{weights, centroids,
                                              w.region_edges, w.bounds,
                                              config.procs};
      assignment = loadbal::partition_rcb(problem);

      runtime::WorkCounts probe;
      probe.ray_casts = ray_casts;
      const double probe_s =
          config.costs.seconds(probe) / config.procs;  // probes run in parallel
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
  {
    std::vector<double> busy(config.procs, 0.0);
    // edge_profiles can be a prefix of region_edges for a cancelled
    // workload; iterate what was actually measured.
    for (std::size_t i = 0; i < w.edge_profiles.size(); ++i) {
      const EdgeProfile& ep = w.edge_profiles[i];
      const std::uint32_t pa = out.assignment[ep.a];
      const std::uint32_t pb = out.assignment[ep.b];
      double t = ep.service_s;
      if (pa != pb)
        t += config.cluster.latency(pa, pb) +
             static_cast<double>(ep.bytes_touched) /
                 config.cluster.bandwidth_bps;
      busy[pa] += t;
    }
    double max_busy = 0.0;
    for (const double b : busy) max_busy = std::max(max_busy, b);
    const double barrier =
        config.procs > 1 ? config.cluster.remote_latency_s *
                               std::ceil(std::log2(double(config.procs)))
                         : 0.0;
    out.branch_connection_s = max_busy + barrier;
  }

  {
    std::vector<double> nodes(config.procs, 0.0);
    for (std::size_t r = 0; r < nr; ++r)
      nodes[out.assignment[r]] += w.regions[r].samples;
    out.cv_nodes_after = summarize(nodes).cv();
  }

  out.total_s = out.redistribution_s + out.growth_s + out.branch_connection_s;
  return out;
}

}  // namespace pmpl::core
