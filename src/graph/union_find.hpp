#pragma once
/// \file union_find.hpp
/// Disjoint-set forest with path halving and union by size.
///
/// PRM uses it to track roadmap connected components (skip connection
/// attempts within a component, report component counts);
/// `components_of` labels a whole graph with it (component counts and
/// sizes, `is_forest`).

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/adjacency_graph.hpp"

namespace pmpl::graph {

/// Standard union-find over dense ids [0, n).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n) {
    parent_.resize(n);
    size_.assign(n, 1);
    std::iota(parent_.begin(), parent_.end(), 0u);
    components_ = n;
  }

  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Union the sets of a and b; returns true if they were separate.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) {
      const auto t = a;
      a = b;
      b = t;
    }
    parent_[b] = a;
    size_[a] += size_[b];
    --components_;
    return true;
  }

  bool connected(std::uint32_t a, std::uint32_t b) noexcept {
    return find(a) == find(b);
  }

  std::size_t component_size(std::uint32_t x) noexcept {
    return size_[find(x)];
  }

  std::size_t size() const noexcept { return parent_.size(); }
  std::size_t num_components() const noexcept { return components_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t components_ = 0;
};

/// The connected components of `g`, as a union-find over its vertices.
template <typename VP, typename EP>
UnionFind components_of(const AdjacencyGraph<VP, EP>& g) {
  UnionFind cc(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const auto& he : g.edges_of(v)) cc.unite(v, he.to);
  return cc;
}

}  // namespace pmpl::graph
