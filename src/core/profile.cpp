#include "core/profile.hpp"

#include <algorithm>
#include <thread>

#include "cspace/config.hpp"
#include "loadbal/bulk_sync.hpp"
#include "util/stats.hpp"

namespace pmpl::core {

void measure_workload(const env::Environment& e, const RegionTask& task,
                      const WorkloadMeasure& m, Workload& w) {
  const runtime::CostModel costs = runtime::CostModel::paper_fidelity();
  RegionPipeline pipeline;
  pipeline.workers = std::max(1u, std::thread::hardware_concurrency());
  pipeline.anytime.cancel = m.cancel;
  pipeline.connect = m.connect;

  w.edge_profiles.reserve(w.region_edges.size());
  const auto profile_pair = [&](const planner::Roadmap& g,
                                const PairConnection& pair) {
    EdgeProfile ep;
    ep.a = pair.a;
    ep.b = pair.b;
    ep.edges_added = static_cast<std::uint32_t>(pair.edges_added);
    ep.service_s = costs.seconds(to_work_counts(pair.stats));
    // The executor fetches the neighbour region's candidates.
    ep.vertex_reads = static_cast<std::uint32_t>(pair.near_b.size());
    for (const graph::VertexId v : pair.near_b)
      ep.bytes_touched += cspace::config_bytes(g.vertex(v).cfg);
    w.edge_profiles.push_back(ep);
  };
  RegionBuildResult built = build_regions_anytime(
      w.regions.size(), pipeline, task,
      connect_regions(e, w.region_edges, pipeline, profile_pair));

  w.roadmap = std::move(built.roadmap);
  w.region_vertices = std::move(built.region_vertices);
  w.regions_measured = built.degradation.regions_completed;
  w.measurement_cancelled = w.regions_measured < w.regions.size() ||
                            w.edge_profiles.size() < w.region_edges.size();
  for (std::uint32_t r = 0; r < w.regions.size(); ++r) {
    if (!built.region_completed[r]) continue;
    RegionProfile& profile = w.regions[r];
    profile.sampling_ops = to_work_counts(built.region_sampling[r]);
    profile.sampling_s = costs.seconds(profile.sampling_ops);
    profile.build_ops = to_work_counts(built.region_build[r]);
    profile.build_s = costs.seconds(profile.build_ops);
    const auto& ids = w.region_vertices[r];
    profile.samples = static_cast<std::uint32_t>(ids.size());
    // Migration payload: a region descriptor, the region's vertices and
    // its own edges (connection edges join vertices of two regions).
    profile.bytes = 64;
    for (const graph::VertexId v : ids) {
      const auto& vertex = w.roadmap.vertex(v);
      profile.bytes += cspace::config_bytes(vertex.cfg) + m.vertex_bytes;
      for (const auto& he : w.roadmap.edges_of(v))
        if (w.roadmap.vertex(he.to).region == r)
          profile.bytes += m.edge_end_bytes;
    }
  }
}

RegionConnectionReplay replay_region_connection(
    const Workload& w, const loadbal::Assignment& owner, std::uint32_t procs,
    const runtime::ClusterSpec& cluster) {
  RegionConnectionReplay out;
  // edge_profiles can be a prefix of region_edges for a cancelled
  // workload; replay what was actually measured.
  std::vector<double> times;
  loadbal::Assignment executor;
  for (const EdgeProfile& ep : w.edge_profiles) {
    const std::uint32_t pa = owner[ep.a];
    const std::uint32_t pb = owner[ep.b];
    double t = ep.service_s;
    if (pa != pb) {
      // Remote adjacency lookup + bulk fetch of the neighbor's candidates.
      ++out.remote_region_graph;
      out.remote_roadmap += ep.vertex_reads;
      t += cluster.latency(pa, pb) +
           static_cast<double>(ep.bytes_touched) / cluster.bandwidth_bps;
    }
    times.push_back(t);
    executor.push_back(pa);
  }
  out.time_s = loadbal::static_phase(times, executor, procs, cluster).time_s;
  return out;
}

std::vector<std::uint64_t> nodes_per_processor(
    const Workload& w, const loadbal::Assignment& owner, std::uint32_t procs) {
  std::vector<std::uint64_t> nodes(procs, 0);
  for (std::size_t r = 0; r < w.regions.size(); ++r)
    nodes[owner[r]] += w.regions[r].samples;
  return nodes;
}

double cv_of_counts(const std::vector<std::uint64_t>& counts) {
  std::vector<double> d(counts.begin(), counts.end());
  return summarize(d).cv();
}

}  // namespace pmpl::core
