#include "planner/prm.hpp"

#include <algorithm>

#include "planner/query.hpp"

namespace pmpl::planner {

std::vector<cspace::Config> sample_region(const env::Environment& e,
                                          const geo::Aabb& box,
                                          std::size_t attempts,
                                          Xoshiro256ss& rng,
                                          PlannerStats& stats,
                                          const runtime::CancelToken* cancel) {
  const UniformSampler sampler(e.space(), e.validity());
  return sample_region_with(sampler, box, attempts, rng, stats, cancel);
}

std::vector<cspace::Config> sample_region_with(const Sampler& sampler,
                                               const geo::Aabb& box,
                                               std::size_t attempts,
                                               Xoshiro256ss& rng,
                                               PlannerStats& stats,
                                               const runtime::CancelToken*
                                                   cancel) {
  std::vector<cspace::Config> valid;
  valid.reserve(attempts / 2);
  cspace::Config c;
  for (std::size_t i = 0; i < attempts; ++i) {
    if (runtime::stop_requested(cancel)) break;
    if (sampler.sample(box, rng, c, stats)) valid.push_back(c);
  }
  return valid;
}

void connect_to_nearest(const env::Environment& e, Roadmap& g,
                        KdTreeKnn& finder,
                        std::span<const graph::VertexId> from,
                        const PrmParams& params, PlannerStats& stats,
                        graph::UnionFind* cc,
                        const runtime::CancelToken* cancel) {
  // Batch every k-NN query up front. The finder is never mutated during
  // the connection loop, so batched results are identical to interleaved
  // per-vertex queries, and the batch reuses one result buffer.
  std::vector<cspace::Config> qcfgs;
  qcfgs.reserve(from.size());
  for (graph::VertexId id : from) qcfgs.push_back(g.vertex(id).cfg);
  KnnBatch batch;
  // k+1 because the query point itself may be in the structure.
  finder.nearest_batch(qcfgs, params.k_neighbors + 1, batch, &stats);

  const auto skip = [&](graph::VertexId a, graph::VertexId b) {
    return g.has_edge(a, b) ||
           (params.skip_same_component && cc != nullptr && cc->connected(a, b));
  };

  // Admit candidate edges into a small speculative window and commit
  // results strictly in admission order. The admission precondition is
  // monotone (edges are only ever added), so a candidate skipped at
  // admission would also be skipped by a one-plan-per-candidate loop; an
  // admitted candidate is re-checked at commit against the caught-up
  // graph, and a stale result is discarded without touching any counter.
  cspace::EdgeBatchPlanner ebp(e.space(), e.validity(), params.resolution);
  const auto commit_one = [&] {
    const auto out = ebp.next(&stats.cd);
    const auto a = static_cast<graph::VertexId>(out.tag >> 32);
    const auto b = static_cast<graph::VertexId>(out.tag & 0xffffffffu);
    if (skip(a, b)) return;
    ++stats.lp_attempts;
    stats.lp_steps += out.result.steps_checked;
    // EdgeBatchPlanner drops queries (speculation must not count); a
    // LocalPlanner::plan issues exactly one query per checked step, so the
    // committed edge's semantic count is reconstructed here.
    stats.cd.queries += out.result.steps_checked;
    if (out.result.success) {
      ++stats.lp_success;
      g.add_edge(a, b, {out.result.length});
      if (cc != nullptr) cc->unite(a, b);
    }
  };

  for (std::size_t qi = 0; qi < from.size(); ++qi) {
    const graph::VertexId id = from[qi];
    if (runtime::stop_requested(cancel)) break;
    for (const Neighbor& n : batch.of(qi)) {
      if (n.id == id || skip(id, n.id)) continue;
      if (!ebp.can_admit()) commit_one();
      ebp.admit(g.vertex(id).cfg, g.vertex(n.id).cfg,
                (static_cast<std::uint64_t>(id) << 32) | n.id);
    }
  }
  // Drain the window (on cancel this is the bounded overrun).
  while (ebp.pending()) commit_one();
}

void connect_within(const env::Environment& e, Roadmap& g,
                    std::span<const graph::VertexId> ids,
                    const PrmParams& params, PlannerStats& stats,
                    graph::UnionFind* cc,
                    const runtime::CancelToken* cancel) {
  if (ids.size() < 2) return;
  KdTreeKnn finder(e.space());
  for (graph::VertexId id : ids) finder.insert(id, g.vertex(id).cfg);
  connect_to_nearest(e, g, finder, ids, params, stats, cc, cancel);
}

std::vector<graph::VertexId> connect_samples(
    const env::Environment& e, Roadmap& g,
    std::span<const cspace::Config> samples, std::uint32_t region,
    const PrmParams& params, PlannerStats& stats,
    const runtime::CancelToken* cancel) {
  std::vector<graph::VertexId> ids;
  ids.reserve(samples.size());
  for (const auto& c : samples) ids.push_back(g.add_vertex({c, region}));
  graph::UnionFind cc(g.num_vertices());
  connect_within(e, g, ids, params, stats, &cc, cancel);
  return ids;
}

std::size_t connect_between(const env::Environment& e, Roadmap& g,
                            std::span<const graph::VertexId> ids_a,
                            std::span<const graph::VertexId> ids_b,
                            const PrmParams& params, PlannerStats& stats,
                            graph::UnionFind* cc, std::size_t max_attempts,
                            const runtime::CancelToken* cancel) {
  if (ids_a.empty() || ids_b.empty()) return 0;
  // Query from the smaller side into the larger side.
  std::span<const graph::VertexId> from = ids_a;
  std::span<const graph::VertexId> to = ids_b;
  if (from.size() > to.size()) std::swap(from, to);

  KdTreeKnn finder(e.space());
  for (graph::VertexId id : to) finder.insert(id, g.vertex(id).cfg);

  // Collect candidate pairs (closest first), then attempt the best ones.
  struct Candidate {
    double distance;
    graph::VertexId a, b;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(from.size() * 2);
  std::vector<cspace::Config> qcfgs;
  qcfgs.reserve(from.size());
  for (graph::VertexId id : from) qcfgs.push_back(g.vertex(id).cfg);
  KnnBatch batch;
  finder.nearest_batch(qcfgs, 2, batch, &stats);
  for (std::size_t qi = 0; qi < from.size(); ++qi)
    for (const Neighbor& n : batch.of(qi))
      candidates.push_back({n.distance, from[qi], n.id});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.distance < y.distance;
            });

  const cspace::LocalPlanner lp(e.space(), e.validity(), params.resolution);
  std::size_t edges_added = 0;
  std::size_t attempts = 0;
  for (const Candidate& c : candidates) {
    if (attempts >= max_attempts) break;
    if (runtime::stop_requested(cancel)) break;
    if (g.has_edge(c.a, c.b)) continue;
    if (params.skip_same_component && cc != nullptr &&
        cc->connected(c.a, c.b))
      continue;
    ++attempts;
    ++stats.lp_attempts;
    const auto r = lp.plan(g.vertex(c.a).cfg, g.vertex(c.b).cfg, &stats.cd);
    stats.lp_steps += r.steps_checked;
    if (r.success) {
      ++stats.lp_success;
      g.add_edge(c.a, c.b, {r.length});
      if (cc != nullptr) cc->unite(c.a, c.b);
      ++edges_added;
    }
  }
  return edges_added;
}

void Prm::build(std::size_t attempts, std::uint64_t seed,
                const runtime::CancelToken* cancel) {
  Xoshiro256ss rng(seed);
  const auto sampler = make_sampler(params_.sampler, env_->space(),
                                    env_->validity(), params_.sampler_scale);
  const auto samples =
      sample_region_with(*sampler, env_->space().position_bounds(), attempts,
                         rng, stats_, cancel);
  connect_samples(*env_, map_, samples, 0, params_, stats_, cancel);
}

std::optional<std::vector<cspace::Config>> Prm::query(
    const cspace::Config& start, const cspace::Config& goal) {
  return query_roadmap(*env_, map_, start, goal, params_.k_neighbors,
                       params_.resolution, &stats_);
}

}  // namespace pmpl::planner
