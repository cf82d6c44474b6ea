#include "planner/query.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "cspace/local_planner.hpp"
#include "planner/knn.hpp"

namespace pmpl::planner {

namespace {

constexpr double kInf = 1e300;  // "not reached" distance
// A vertex that cannot reach the goal: its component holds no goal edge.
constexpr double kNoGoal = std::numeric_limits<double>::infinity();
// The landmark bound is a difference of two rounded Dijkstra sums; shrink it
// by far more than their rounding error so it never overestimates.
constexpr double kLandmarkShrink = 1.0 - 1e-9;

// Open-set order: a min-heap on (f, vertex id). Breaking f ties by
// ascending vertex id, as graph::astar does, makes expansion order
// deterministic; without a landmark table the keys and pops are the ones
// the metric-only search has always produced.
bool open_after(const SearchScratch::OpenEntry& a,
                const SearchScratch::OpenEntry& b) noexcept {
  return a.f != b.f ? a.f > b.f : a.v > b.v;
}

/// True when some start edge and some goal edge land in one component.
bool attachments_share_component(const LandmarkTable& lt,
                                 std::span<const AttachEdge> start_edges,
                                 std::span<const AttachEdge> goal_edges) {
  for (const AttachEdge& a : start_edges)
    for (const AttachEdge& b : goal_edges)
      if (lt.component(a.to) == lt.component(b.to)) return true;
  return false;
}

}  // namespace

std::optional<std::vector<cspace::Config>> find_path_with_attachments(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::span<const AttachEdge> start_edges,
    std::span<const AttachEdge> goal_edges, const LandmarkTable* landmarks,
    SearchScratch* scratch) {
  SearchScratch local;
  SearchScratch& sc = scratch != nullptr ? *scratch : local;
  sc.expanded = 0;
  if (start_edges.empty() || goal_edges.empty()) return std::nullopt;
  assert(landmarks == nullptr || landmarks->num_vertices() == g.num_vertices());
  if (landmarks != nullptr &&
      !attachments_share_component(*landmarks, start_edges, goal_edges))
    return std::nullopt;

  // Virtual ids: n = start, n + 1 = goal. The overlay is two extra rows of
  // the per-vertex state; the roadmap is only ever read.
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  const graph::VertexId s = n;
  const graph::VertexId t = n + 1;
  if (sc.stamp.size() < n + 2u) {
    sc.dist.resize(n + 2u);
    sc.h.resize(n + 2u);
    sc.prev.resize(n + 2u);
    sc.stamp.resize(n + 2u, 0);
  }
  if (++sc.generation == 0) {  // wrapped: forget every stale stamp
    std::fill(sc.stamp.begin(), sc.stamp.end(), 0u);
    sc.generation = 1;
  }
  const std::uint32_t gen = sc.generation;
  sc.open.clear();

  const auto& space = e.space();
  const auto cfg_of = [&](graph::VertexId v) -> const cspace::Config& {
    if (v == s) return start;
    if (v == t) return goal;
    return g.vertex(v).cfg;
  };

  sc.goal_rows.clear();
  if (landmarks != nullptr)
    for (const AttachEdge& a : goal_edges)
      sc.goal_rows.push_back(
          {landmarks->component(a.to), a.length, landmarks->row(a.to)});
  // ALT bound for roadmap vertex v; kNoGoal when v cannot reach the goal.
  const auto landmark_bound = [&](graph::VertexId v) {
    std::array<double, LandmarkTable::kLandmarks> best;
    best.fill(kNoGoal);
    const std::uint32_t cv = landmarks->component(v);
    const double* dv = landmarks->row(v);
    for (const SearchScratch::GoalRow& a : sc.goal_rows) {
      if (a.component != cv) continue;
      for (std::size_t l = 0; l < best.size(); ++l)
        best[l] = std::min(best[l], std::abs(dv[l] - a.row[l]) + a.length);
    }
    const double bound = *std::max_element(best.begin(), best.end());
    return bound == kNoGoal ? kNoGoal : bound * kLandmarkShrink;
  };
  const auto heuristic = [&](graph::VertexId v) {
    if (v == t) return 0.0;
    const double metric = space.distance(cfg_of(v), goal);
    if (landmarks == nullptr || v == s) return metric;
    return std::max(metric, landmark_bound(v));
  };

  const auto push = [&](graph::VertexId v) {
    sc.open.push_back({sc.dist[v] + sc.h[v], sc.dist[v], v});
    std::push_heap(sc.open.begin(), sc.open.end(), open_after);
  };
  const auto touch = [&](graph::VertexId v) {
    if (sc.stamp[v] == gen) return;
    sc.stamp[v] = gen;
    sc.dist[v] = kInf;
    sc.prev[v] = graph::kInvalidVertex;
    sc.h[v] = heuristic(v);  // once per vertex per search
  };
  const auto relax = [&](graph::VertexId from, graph::VertexId to, double w) {
    touch(to);
    const double nd = sc.dist[from] + w;
    if (nd < sc.dist[to] && sc.h[to] != kNoGoal) {
      sc.dist[to] = nd;
      sc.prev[to] = from;
      push(to);
    }
  };

  touch(s);
  touch(t);
  sc.dist[s] = 0.0;
  push(s);
  while (!sc.open.empty()) {
    std::pop_heap(sc.open.begin(), sc.open.end(), open_after);
    const SearchScratch::OpenEntry top = sc.open.back();
    sc.open.pop_back();
    const graph::VertexId u = top.v;
    if (u == t) break;
    if (top.g > sc.dist[u]) continue;  // stale entry
    ++sc.expanded;
    if (u == s) {
      for (const AttachEdge& a : start_edges) relax(s, a.to, a.length);
      continue;
    }
    for (const auto& edge : g.edges_of(u)) relax(u, edge.to, edge.prop.length);
    // Overlay edges into the goal: the lists are k-sized, so a linear scan
    // per expansion costs less than building a lookup table would.
    for (const AttachEdge& a : goal_edges)
      if (a.to == u) relax(u, t, a.length);
  }

  if (sc.dist[t] >= kInf) return std::nullopt;
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v = t; v != graph::kInvalidVertex; v = sc.prev[v])
    vertices.push_back(v);
  std::reverse(vertices.begin(), vertices.end());

  std::vector<cspace::Config> configs;
  configs.reserve(vertices.size());
  for (graph::VertexId v : vertices) configs.push_back(cfg_of(v));
  return configs;
}

std::optional<std::vector<cspace::Config>> query_roadmap(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::size_t k_neighbors, double resolution,
    PlannerStats* stats) {
  PlannerStats local;
  PlannerStats& st = stats != nullptr ? *stats : local;

  if (!e.validity().valid(start, &st.cd) || !e.validity().valid(goal, &st.cd))
    return std::nullopt;

  const cspace::LocalPlanner lp(e.space(), e.validity(), resolution);

  // Direct start->goal shot first (trivial queries).
  {
    ++st.lp_attempts;
    const auto r = lp.plan(start, goal, &st.cd);
    st.lp_steps += r.steps_checked;
    if (r.success) {
      ++st.lp_success;
      return std::vector<cspace::Config>{start, goal};
    }
  }

  KdTreeKnn finder(e.space(), g);

  const auto attach = [&](const cspace::Config& c,
                          std::vector<AttachEdge>& out) {
    for (const Neighbor& nb : finder.nearest(c, k_neighbors, &st)) {
      ++st.lp_attempts;
      const auto r = lp.plan(c, g.vertex(nb.id).cfg, &st.cd);
      st.lp_steps += r.steps_checked;
      if (r.success) {
        ++st.lp_success;
        out.push_back({nb.id, r.length});
      }
    }
    return !out.empty();
  };

  std::vector<AttachEdge> start_edges, goal_edges;
  if (!attach(start, start_edges) || !attach(goal, goal_edges))
    return std::nullopt;
  return find_path_with_attachments(e, g, start, goal, start_edges,
                                    goal_edges);
}

double path_length(const env::Environment& e,
                   const std::vector<cspace::Config>& path) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    total += e.space().distance(path[i], path[i + 1]);
  return total;
}

bool path_valid(const env::Environment& e,
                const std::vector<cspace::Config>& path, double resolution,
                PlannerStats* stats) {
  if (path.empty()) return false;
  PlannerStats local;
  PlannerStats& st = stats != nullptr ? *stats : local;
  const cspace::LocalPlanner lp(e.space(), e.validity(), resolution);
  for (const auto& c : path)
    if (!e.validity().valid(c, &st.cd)) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto r = lp.plan(path[i], path[i + 1], &st.cd);
    st.lp_steps += r.steps_checked;
    if (!r.success) return false;
  }
  return true;
}

}  // namespace pmpl::planner
