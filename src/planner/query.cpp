#include "planner/query.hpp"

#include <algorithm>
#include <array>
#include <cassert>
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

void prefetch(const void* p) noexcept { __builtin_prefetch(p); }

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

  // Virtual ids: n = start, n + 1 = goal. The overlay is two extra
  // records of the per-vertex state; the roadmap is only ever read.
  using Node = SearchScratch::Node;
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  const graph::VertexId s = n;
  const graph::VertexId t = n + 1;
  if (sc.nodes.size() < n + 2u)
    sc.nodes.resize(n + 2u, Node{0.0, 0.0, graph::kInvalidVertex, 0,
                                 graph::kNotQueued});
  if (++sc.generation == 0) {  // wrapped: forget every stale stamp
    for (Node& nd : sc.nodes) nd.stamp = 0;
    sc.generation = 1;
  }
  const std::uint32_t gen = sc.generation;
  Node* const nodes = sc.nodes.data();
  sc.open.reset({nodes});

  const auto& space = e.space();
  const auto cfg_of = [&](graph::VertexId v) -> const cspace::Config& {
    if (v == s) return start;
    if (v == t) return goal;
    return g.vertex(v).cfg;
  };

  // The virtual goal's landmark rows, one per component that holds goal
  // edges, so that a touch costs O(L) however many goal edges there are.
  constexpr std::size_t L = LandmarkTable::kLandmarks;
  using GoalRow = SearchScratch::GoalRow;
  const auto goal_row = [&](std::uint32_t c) -> GoalRow* {
    for (GoalRow& r : sc.goal_rows)
      if (r.component == c) return &r;
    return nullptr;
  };
  if (landmarks != nullptr) {
    sc.goal_rows.clear();
    for (const AttachEdge& a : goal_edges) {
      const std::uint32_t c = landmarks->component(a.to);
      GoalRow* r = goal_row(c);
      if (r == nullptr) {
        r = &sc.goal_rows.emplace_back();
        r->component = c;
        r->lo.fill(-kNoGoal);
        r->hi.fill(kNoGoal);
      }
      const double* d = landmarks->row(a.to);
      for (std::size_t l = 0; l < L; ++l) {
        r->lo[l] = std::max(r->lo[l], d[l] - a.length);
        r->hi[l] = std::min(r->hi[l], d[l] + a.length);
      }
    }
  }
  // ALT bound for roadmap vertex v; kNoGoal when v cannot reach the goal.
  const auto landmark_bound = [&](graph::VertexId v) {
    const GoalRow* r = goal_row(landmarks->component(v));
    if (r == nullptr) return kNoGoal;
    const double* d = landmarks->row(v);
    std::array<double, L> gap;
    for (std::size_t l = 0; l < L; ++l)
      gap[l] = std::max(d[l] - r->lo[l], r->hi[l] - d[l]);
    return *std::max_element(gap.begin(), gap.end()) * kLandmarkShrink;
  };
  const auto heuristic = [&](graph::VertexId v) {
    if (v == t) return 0.0;
    if (landmarks == nullptr || v == s) return space.distance(cfg_of(v), goal);
    const double bound = landmark_bound(v);
    if (bound == kNoGoal) return kNoGoal;
    return std::max(space.distance(cfg_of(v), goal), bound);
  };

  const auto touch = [&](graph::VertexId v) -> Node& {
    Node& nd = nodes[v];
    if (nd.stamp != gen) {
      nd.stamp = gen;
      nd.dist = kInf;
      nd.prev = graph::kInvalidVertex;
      nd.heap_pos = graph::kNotQueued;
      nd.h = heuristic(v);  // once per vertex per search
    }
    return nd;
  };
  // Relax the edge from -> to of weight w, where from's cost is `from_dist`.
  const auto relax = [&](graph::VertexId from, double from_dist,
                         graph::VertexId to, double w) {
    Node& nd = touch(to);
    const double d = from_dist + w;
    if (d < nd.dist && nd.h != kNoGoal) {
      nd.dist = d;
      nd.prev = from;
      sc.open.push_or_decrease(to, d + nd.h);
      // A queued vertex is likely to be expanded: start loading its edges.
      if (to < n) prefetch(g.edges_of(to).data());
    }
  };

  Node& sn = touch(s);
  touch(t);
  sn.dist = 0.0;
  sc.open.push_or_decrease(s, sn.dist + sn.h);
  // Neighbours of the expanded vertex seen for the first time this search;
  // their heuristic inputs are prefetched while the others relax.
  std::array<const Roadmap::HalfEdge*, 32> fresh;
  while (!sc.open.empty()) {
    const graph::VertexId u = sc.open.pop();
    if (u == t) break;
    ++sc.expanded;
    const double du = nodes[u].dist;
    if (u == s) {
      for (const AttachEdge& a : start_edges) relax(s, du, a.to, a.length);
      continue;
    }
    // u's edges go to distinct vertices, so the order in which they relax
    // changes nothing: relax the already-touched ones first, and give the
    // loads of the fresh ones' configuration and landmark row that time.
    std::size_t num_fresh = 0;
    for (const auto& edge : g.edges_of(u)) {
      if (nodes[edge.to].stamp == gen || num_fresh == fresh.size()) {
        relax(u, du, edge.to, edge.prop.length);
        continue;
      }
      prefetch(&g.vertex(edge.to).cfg);
      if (landmarks != nullptr) {
        const double* row = landmarks->row(edge.to);
        prefetch(row);
        prefetch(row + L - 1);  // a row may straddle two cache lines
      }
      fresh[num_fresh++] = &edge;
    }
    for (std::size_t i = 0; i < num_fresh; ++i)
      relax(u, du, fresh[i]->to, fresh[i]->prop.length);
    // Overlay edges into the goal: the lists are k-sized, so a linear scan
    // per expansion costs less than building a lookup table would.
    for (const AttachEdge& a : goal_edges)
      if (a.to == u) relax(u, du, t, a.length);
  }

  if (nodes[t].dist >= kInf) return std::nullopt;
  // Walk the predecessors twice, so that the path is its one allocation.
  std::size_t hops = 0;
  for (graph::VertexId v = t; v != graph::kInvalidVertex; v = nodes[v].prev)
    ++hops;
  std::vector<cspace::Config> configs(hops);
  for (graph::VertexId v = t; v != graph::kInvalidVertex; v = nodes[v].prev)
    configs[--hops] = cfg_of(v);
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
