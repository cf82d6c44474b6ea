#pragma once
/// \file tree_utils.hpp
/// Path extraction and cycle checks for tree-structured roadmaps.
///
/// Radial-subdivision RRT joins its regional subtrees without ever closing
/// a cycle: a connection attempt between two vertices already in one
/// component is skipped (`skip_same_component`), so the roadmap stays a
/// forest and nothing is pruned. RRT-Connect bridges its two trees with
/// one edge, so its start-goal path is the unique `forest_path`.

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/adjacency_graph.hpp"
#include "graph/union_find.hpp"

namespace pmpl::graph {

/// Find the unique path a..b in what is assumed to be a forest. Returns the
/// path as vertex ids, or nullopt if disconnected.
template <typename VP, typename EP>
std::optional<std::vector<VertexId>> forest_path(
    const AdjacencyGraph<VP, EP>& g, VertexId a, VertexId b) {
  if (a >= g.num_vertices() || b >= g.num_vertices()) return std::nullopt;
  std::vector<VertexId> prev(g.num_vertices(), kInvalidVertex);
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{a};
  seen[a] = true;
  bool found = (a == b);
  while (!stack.empty() && !found) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (const auto& e : g.edges_of(u)) {
      if (seen[e.to]) continue;
      seen[e.to] = true;
      prev[e.to] = u;
      if (e.to == b) {
        found = true;
        break;
      }
      stack.push_back(e.to);
    }
  }
  if (!found) return std::nullopt;
  std::vector<VertexId> path;
  for (VertexId v = b; v != kInvalidVertex; v = prev[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  if (path.front() != a) return std::nullopt;  // a==b degenerate case
  return path;
}

/// Is the graph a forest (no cycles)? AdjacencyGraph rejects self-loops
/// and duplicate edges, so every edge either joins two components or
/// closes a cycle: the graph is a forest iff E + C = V.
template <typename VP, typename EP>
bool is_forest(const AdjacencyGraph<VP, EP>& g) {
  return g.num_edges() + components_of(g).num_components() ==
         g.num_vertices();
}

}  // namespace pmpl::graph
