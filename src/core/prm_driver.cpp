#include "core/prm_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "core/region_weight.hpp"
#include "cspace/config.hpp"
#include "geometry/intersect.hpp"
#include "loadbal/partition.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pmpl::core {

namespace {

/// Serialized size of a region's roadmap payload for migration.
std::uint64_t region_payload_bytes(const planner::Roadmap& g,
                                   std::span<const graph::VertexId> ids) {
  std::uint64_t bytes = 64;  // region descriptor
  for (const graph::VertexId v : ids) {
    bytes += cspace::config_bytes(g.vertex(v).cfg) + 8;  // cfg + id
    bytes += g.degree(v) * 12;                           // edge records
  }
  return bytes;
}

/// Vertices of region `r` lying within `band` of region `other`'s box —
/// the only candidates region connection considers (and the only data
/// fetched remotely when the neighbor lives on another location).
std::vector<graph::VertexId> boundary_vertices(
    const planner::Roadmap& g, const cspace::CSpace& space,
    std::span<const graph::VertexId> ids, const geo::Aabb& other_box,
    double band) {
  std::vector<graph::VertexId> out;
  const double band2 = band * band;
  for (const graph::VertexId v : ids) {
    const geo::Vec3 p = space.position(g.vertex(v).cfg);
    if (geo::distance2(p, other_box) <= band2) out.push_back(v);
  }
  return out;
}

}  // namespace

Workload build_prm_workload(const env::Environment& e, const RegionGrid& grid,
                            const PrmWorkloadConfig& config) {
  Workload w;
  const std::size_t nr = grid.size();
  w.regions.resize(nr);
  w.region_vertices.resize(nr);
  w.region_edges = grid.adjacency_edges();
  w.bounds = grid.bounds();

  const std::size_t base = config.total_attempts / nr;
  const std::size_t extra = config.total_attempts % nr;
  const auto sampler = planner::make_sampler(
      config.prm.sampler, e.space(), e.validity(), config.prm.sampler_scale);

  // Phase 1+2 per region: sample, then connect within the region.
  // Per-region RNG streams make the result independent of execution order.
  // A fired cancel token stops measurement after the current granule
  // (sample attempt / vertex connection); the interrupted region's profile
  // stays zero-initialized and its samples are discarded.
  for (std::uint32_t r = 0; r < nr; ++r) {
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;
    }
    RegionProfile& profile = w.regions[r];
    profile.centroid = grid.centroid(r);

    Xoshiro256ss rng(derive_seed(config.seed, r));
    planner::PlannerStats sampling_stats;
    const auto samples = planner::sample_region_with(
        *sampler, grid.sampling_box(r), base + (r < extra), rng,
        sampling_stats, config.cancel);
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;  // partial sample set: discard before committing vertices
    }

    planner::PlannerStats build_stats;
    w.region_vertices[r] = planner::connect_samples(
        e, w.roadmap, samples, r, config.prm, build_stats, config.cancel);
    const auto& ids = w.region_vertices[r];
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;  // region partially connected: its profile stays unmeasured
    }
    profile.sampling_ops = to_work_counts(sampling_stats);
    profile.sampling_s = config.costs.seconds(profile.sampling_ops);
    profile.samples = static_cast<std::uint32_t>(samples.size());
    profile.build_ops = to_work_counts(build_stats);
    profile.build_s = config.costs.seconds(profile.build_ops);
    profile.bytes = region_payload_bytes(w.roadmap, ids);
    ++w.regions_measured;
  }

  // Phase 3: region connection along region-graph edges (measured in fixed
  // edge order; the attempts touch the global roadmap). A global component
  // tracker skips attempts between already-merged regions, so — as in real
  // PRM — the bulk of this phase's work happens on the first few edges of
  // each component and the phase stays well below node connection.
  graph::UnionFind components(w.roadmap.num_vertices());
  for (graph::VertexId v = 0; v < w.roadmap.num_vertices(); ++v)
    for (const auto& he : w.roadmap.edges_of(v)) components.unite(v, he.to);
  w.edge_profiles.reserve(w.region_edges.size());
  // Candidate band: a third of a cell — only samples this close to the
  // shared face participate in boundary connection.
  const geo::Vec3 cell = grid.cell_box(0).size();
  const double band =
      std::max({cell.x, cell.y, cell.z}) / 3.0;
  for (const auto& [a, b] : w.region_edges) {
    if (runtime::stop_requested(config.cancel)) {
      w.measurement_cancelled = true;
      break;  // edge_profiles stays a measured prefix of region_edges
    }
    EdgeProfile ep;
    ep.a = a;
    ep.b = b;
    const auto near_a = boundary_vertices(w.roadmap, e.space(),
                                          w.region_vertices[a],
                                          grid.cell_box(b), band);
    const auto near_b = boundary_vertices(w.roadmap, e.space(),
                                          w.region_vertices[b],
                                          grid.cell_box(a), band);
    planner::PlannerStats stats;
    ep.edges_added = static_cast<std::uint32_t>(planner::connect_between(
        e, w.roadmap, near_a, near_b, config.prm, stats, &components,
        config.max_boundary_attempts));
    ep.service_s = config.costs.seconds(to_work_counts(stats));
    // The executor fetches the neighbor region's boundary candidates.
    ep.vertex_reads = static_cast<std::uint32_t>(near_b.size());
    std::uint64_t bytes = 0;
    for (const graph::VertexId v : near_b)
      bytes += cspace::config_bytes(w.roadmap.vertex(v).cfg);
    ep.bytes_touched = bytes;
    w.edge_profiles.push_back(ep);
  }
  return w;
}

loadbal::Assignment naive_assignment(std::size_t regions,
                                     std::uint32_t procs) {
  return loadbal::partition_block(regions, procs);
}

namespace {

/// Region-connection phase: each region-graph edge is executed by the owner
/// of its first endpoint; edges whose endpoints live on different locations
/// pay remote-access costs (region-graph lookup + roadmap vertex fetches).
struct RegionConnectionOutcome {
  double time_s = 0.0;
  std::uint64_t remote_region_graph = 0;
  std::uint64_t remote_roadmap = 0;
};

RegionConnectionOutcome region_connection_phase(
    const Workload& w, const loadbal::Assignment& owner,
    const PrmRunConfig& config) {
  RegionConnectionOutcome out;
  std::vector<double> busy(config.procs, 0.0);
  // edge_profiles can be a prefix of region_edges for a cancelled
  // workload; iterate what was actually measured.
  for (std::size_t i = 0; i < w.edge_profiles.size(); ++i) {
    const EdgeProfile& ep = w.edge_profiles[i];
    const std::uint32_t pa = owner[ep.a];
    const std::uint32_t pb = owner[ep.b];
    double t = ep.service_s;
    if (pa != pb) {
      // Remote adjacency lookup + bulk fetch of the neighbor's candidates.
      ++out.remote_region_graph;
      out.remote_roadmap += ep.vertex_reads;
      t += config.cluster.latency(pa, pb) +
           static_cast<double>(ep.bytes_touched) / config.cluster.bandwidth_bps;
    }
    busy[pa] += t;
  }
  double max_busy = 0.0;
  for (const double b : busy) max_busy = std::max(max_busy, b);
  const double barrier =
      config.procs > 1 ? config.cluster.remote_latency_s *
                             std::ceil(std::log2(double(config.procs)))
                       : 0.0;
  out.time_s = max_busy + barrier;
  return out;
}

std::vector<std::uint64_t> nodes_per_processor(
    const Workload& w, const loadbal::Assignment& owner, std::uint32_t p) {
  std::vector<std::uint64_t> nodes(p, 0);
  for (std::size_t r = 0; r < w.regions.size(); ++r)
    nodes[owner[r]] += w.regions[r].samples;
  return nodes;
}

double cv_of_counts(const std::vector<std::uint64_t>& counts) {
  std::vector<double> d(counts.begin(), counts.end());
  return summarize(d).cv();
}

}  // namespace

PrmRunResult simulate_prm_run(const Workload& w, const PrmRunConfig& config) {
  assert(config.procs > 0);
  const std::size_t nr = w.regions.size();
  PrmRunResult out;

  const loadbal::Assignment initial = naive_assignment(nr, config.procs);
  out.cv_nodes_before = cv_of_counts(nodes_per_processor(w, initial,
                                                         config.procs));
  out.edge_cut_before = loadbal::edge_cut(w.region_edges, initial);

  // Setup: region-graph construction, O(regions/p) with a collective.
  const double barrier =
      config.procs > 1 ? config.cluster.remote_latency_s *
                             std::ceil(std::log2(double(config.procs)))
                       : 0.0;
  out.phases.setup_s =
      1e-7 * (static_cast<double>(nr) / config.procs) + barrier;

  if (is_work_stealing(config.strategy)) {
    // Algorithm 3: regions are tasks covering sampling + node connection.
    std::vector<loadbal::WsItem> items(nr);
    for (std::size_t r = 0; r < nr; ++r)
      items[r] = {w.regions[r].service_s(), w.regions[r].bytes};
    loadbal::WsConfig ws_cfg;
    ws_cfg.policy = steal_policy_of(config.strategy);
    ws_cfg.cluster = config.cluster;
    ws_cfg.seed = config.seed;
    ws_cfg.faults = config.faults;
    if (config.tracer && config.trace_ranks) {
      ws_cfg.tracer = config.tracer;
      ws_cfg.trace_prefix = config.trace_prefix;
      ws_cfg.trace_capacity = config.trace_rank_capacity;
    }
    out.ws = loadbal::simulate_work_stealing(items, initial, config.procs,
                                             ws_cfg);
    out.straggler_delay_s = out.ws.faults.straggler_delay_s;
    out.assignment = out.ws.final_owner;
    // Attribute the combined makespan to the sampling / node-connection
    // phases proportionally to their global shares (reporting only).
    const double sampling = w.total_sampling_s();
    const double build = w.total_build_s();
    const double share =
        sampling + build > 0.0 ? sampling / (sampling + build) : 0.0;
    out.phases.sampling_s = out.ws.makespan_s * share;
    out.phases.node_connection_s = out.ws.makespan_s * (1.0 - share);
    out.load_profile_s = out.ws.busy_s;
  } else {
    // Bulk-synchronous pipeline: sample on the naive map first. Straggler
    // windows stretch each phase from its wall-clock start; there is no
    // stealing to absorb them, so the closing barrier pays in full.
    const runtime::FaultInjector inject(config.faults);
    std::vector<double> sampling_times(nr);
    for (std::size_t r = 0; r < nr; ++r)
      sampling_times[r] = w.regions[r].sampling_s;
    const auto sampling_phase =
        loadbal::static_phase(sampling_times, initial, config.procs,
                              config.cluster, inject, out.phases.setup_s);
    out.phases.sampling_s = sampling_phase.time_s;
    out.straggler_delay_s += sampling_phase.straggler_delay_s;

    loadbal::Assignment assignment = initial;
    if (config.strategy == Strategy::kRepartition) {
      // Algorithm 4: weight by sample count, repartition, migrate.
      const auto weights = weights_from_sample_counts(w.sample_counts());
      const auto centroids = w.centroids();
      const loadbal::PartitionProblem problem{weights, centroids,
                                              w.region_edges, w.bounds,
                                              config.procs};
      switch (config.partitioner) {
        case PrmRunConfig::Partitioner::kRcb:
          assignment = loadbal::partition_rcb(problem);
          break;
        case PrmRunConfig::Partitioner::kSfc:
          assignment = loadbal::partition_sfc(problem);
          break;
        case PrmRunConfig::Partitioner::kGreedyLpt:
          assignment = loadbal::partition_greedy_lpt(problem);
          break;
      }
      loadbal::refine_edge_cut(problem, assignment);
      const double redistribution = loadbal::redistribution_time(
          w.region_bytes(), initial, assignment, config.procs,
          config.cluster);
      if (config.adaptive) {
        // Estimate the phase-time saving with the weights the partitioner
        // itself used: max weighted load before vs after, scaled to the
        // measured total build time.
        const double total_weight =
            std::accumulate(weights.begin(), weights.end(), 0.0);
        const double scale =
            total_weight > 0.0 ? w.total_build_s() / total_weight : 0.0;
        const double saving =
            scale * (loadbal::makespan(weights, initial, config.procs) -
                     loadbal::makespan(weights, assignment, config.procs));
        if (saving <= redistribution) {
          assignment = initial;  // not worth migrating
          out.repartition_skipped = true;
        } else {
          out.phases.redistribution_s = redistribution;
        }
      } else {
        out.phases.redistribution_s = redistribution;
      }
    }

    const double build_start = out.phases.setup_s + out.phases.sampling_s +
                               out.phases.redistribution_s;
    const auto phase =
        loadbal::static_phase(w.build_times(), assignment, config.procs,
                              config.cluster, inject, build_start);
    out.phases.node_connection_s = phase.time_s;
    out.load_profile_s = phase.busy_s;
    out.straggler_delay_s += phase.straggler_delay_s;
    out.assignment = std::move(assignment);
  }

  const auto rc = region_connection_phase(w, out.assignment, config);
  out.phases.region_connection_s = rc.time_s;
  out.remote_region_graph = rc.remote_region_graph;
  out.remote_roadmap = rc.remote_roadmap;

  out.nodes_per_proc = nodes_per_processor(w, out.assignment, config.procs);
  out.cv_nodes_after = cv_of_counts(out.nodes_per_proc);
  out.edge_cut_after = loadbal::edge_cut(w.region_edges, out.assignment);
  out.total_s = out.phases.total();

  if (config.tracer) {
    // Lay the reported breakdown end-to-end on a virtual-time track: each
    // phase is one span, so per-phase span sums in the exported trace equal
    // the PhaseBreakdown fields exactly.
    runtime::TraceBuffer* t =
        config.tracer->track(config.trace_prefix + "phases", 16);
    double at = 0.0;
    const auto phase_span = [&](const char* name, double dur) {
      t->begin_at(name, at);
      at += dur;
      t->end_at(name, at);
    };
    phase_span("setup", out.phases.setup_s);
    phase_span("sampling", out.phases.sampling_s);
    phase_span("redistribution", out.phases.redistribution_s);
    phase_span("node_connection", out.phases.node_connection_s);
    phase_span("region_connection", out.phases.region_connection_s);
  }
  return out;
}

}  // namespace pmpl::core
