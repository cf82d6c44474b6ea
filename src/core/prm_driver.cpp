#include "core/prm_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel_build.hpp"
#include "core/region_weight.hpp"
#include "loadbal/partition.hpp"

namespace pmpl::core {

Workload build_prm_workload(const env::Environment& e, const RegionGrid& grid,
                            const PrmWorkloadConfig& config) {
  Workload w;
  const std::size_t nr = grid.size();
  w.regions.resize(nr);
  for (std::uint32_t r = 0; r < nr; ++r)
    w.regions[r].centroid = grid.centroid(r);
  w.region_edges = grid.adjacency_edges();
  w.bounds = grid.bounds();

  ParallelPrmConfig task;
  task.total_attempts = config.total_attempts;
  task.prm = config.prm;
  task.seed = config.seed;
  task.anytime.cancel = config.cancel;

  WorkloadMeasure m;
  m.connect.params = config.prm;
  m.connect.max_attempts = kPrmWorkloadBoundaryAttempts;
  // Candidate band: a third of a cell — only samples this close to the
  // shared face participate in boundary connection.
  const geo::Vec3 cell = grid.cell_box(0).size();
  m.connect.band = std::max({cell.x, cell.y, cell.z}) / 3.0;
  m.connect.boxes.reserve(nr);
  for (std::uint32_t r = 0; r < nr; ++r)
    m.connect.boxes.push_back(grid.cell_box(r));
  m.vertex_bytes = 8;     // vertex id
  m.edge_end_bytes = 12;  // edge record
  m.cancel = config.cancel;
  measure_workload(e, prm_region_task(e, grid, task), m, w);
  return w;
}

PrmRunResult simulate_prm_run(const Workload& w, const PrmRunConfig& config) {
  if (config.procs == 0)
    throw std::invalid_argument("simulate_prm_run: procs must be > 0");
  config.cluster.validate("simulate_prm_run");
  const std::size_t nr = w.regions.size();
  PrmRunResult out;

  const loadbal::Assignment initial =
      loadbal::partition_block(nr, config.procs);
  out.cv_nodes_before =
      cv_of_counts(nodes_per_processor(w, initial, config.procs));

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
      // Algorithm 4: weight by sample count, repartition along the
      // space-filling curve (which preserves the spatial geometry),
      // migrate.
      const auto weights = weights_from_sample_counts(w.sample_counts());
      assignment = loadbal::partition_sfc(weights, w.centroids(), w.bounds,
                                          config.procs);
      out.phases.redistribution_s = loadbal::redistribution_time(
          w.region_bytes(), initial, assignment, config.procs,
          config.cluster);
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

  const auto rc = replay_region_connection(w, out.assignment, config.procs,
                                           config.cluster);
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
