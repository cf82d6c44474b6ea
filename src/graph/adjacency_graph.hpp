#pragma once
/// \file adjacency_graph.hpp
/// Undirected adjacency-list graph template.
///
/// Used for both graphs in the paper's algorithms: the *region graph*
/// (vertices = subdivision regions, edges = adjacency) and the *roadmap*
/// (vertices = configurations, edges = validated local plans). This is the
/// sequential core of our STAPL pGraph substitute; distribution is layered
/// on top by the runtime (region -> location maps), matching the paper's
/// ownership-transfer model.

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace pmpl::graph {

using VertexId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = 0xffffffffu;

/// Undirected graph with vertex and edge payloads.
/// Vertices are dense ids; edges are stored per-endpoint.
template <typename VertexProp, typename EdgeProp>
class AdjacencyGraph {
 public:
  struct HalfEdge {
    VertexId to;
    EdgeProp prop;
  };

  VertexId add_vertex(VertexProp p = {}) {
    vertices_.push_back(std::move(p));
    adjacency_.emplace_back();
    return static_cast<VertexId>(vertices_.size() - 1);
  }

  std::size_t num_vertices() const noexcept { return vertices_.size(); }
  std::size_t num_edges() const noexcept { return edge_count_; }

  VertexProp& vertex(VertexId v) {
    assert(v < vertices_.size());
    return vertices_[v];
  }
  const VertexProp& vertex(VertexId v) const {
    assert(v < vertices_.size());
    return vertices_[v];
  }

  std::span<const HalfEdge> edges_of(VertexId v) const {
    assert(v < adjacency_.size());
    return adjacency_[v];
  }

  bool has_edge(VertexId a, VertexId b) const {
    for (const auto& e : adjacency_[a])
      if (e.to == b) return true;
    return false;
  }

  /// Add an undirected edge; returns false (no-op) if it already exists
  /// or is a self-loop.
  bool add_edge(VertexId a, VertexId b, EdgeProp p = {}) {
    assert(a < vertices_.size() && b < vertices_.size());
    if (a == b || has_edge(a, b)) return false;
    adjacency_[a].push_back({b, p});
    adjacency_[b].push_back({a, std::move(p)});
    ++edge_count_;
    return true;
  }

  std::size_t degree(VertexId v) const { return adjacency_[v].size(); }

  void reserve_vertices(std::size_t n) {
    vertices_.reserve(n);
    adjacency_.reserve(n);
  }

  /// Release spare capacity of the vertex arrays and of every edge list,
  /// for a graph that has stopped growing (a published snapshot).
  void shrink_to_fit() {
    vertices_.shrink_to_fit();
    adjacency_.shrink_to_fit();
    for (auto& adj : adjacency_) adj.shrink_to_fit();
  }

 private:
  std::vector<VertexProp> vertices_;
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace pmpl::graph
