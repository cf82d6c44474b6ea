#include "planner/landmarks.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>

#include "graph/indexed_heap.hpp"

namespace pmpl::planner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kAbsent = 0xffffffffu;

/// The Dijkstra heap's position index: a flat array indexed by vertex id.
struct ArrayHeapPos {
  std::uint32_t* pos = nullptr;
  std::uint32_t& operator()(graph::VertexId v) const noexcept {
    return pos[v];
  }
};
using DistHeap = graph::IndexedHeap<ArrayHeapPos>;

/// Single-source graph distances from `src` into `d`, which must be kInf
/// on every vertex of src's component (and is left holding the result).
void dijkstra(const Roadmap& g, graph::VertexId src, std::vector<double>& d,
              DistHeap& heap) {
  d[src] = 0.0;
  heap.push_or_decrease(src, 0.0);
  while (!heap.empty()) {
    const graph::VertexId u = heap.pop();
    for (const auto& e : g.edges_of(u)) {
      const double nd = d[u] + e.prop.length;
      if (nd < d[e.to]) {
        d[e.to] = nd;
        heap.push_or_decrease(e.to, nd);
      }
    }
  }
}

}  // namespace

LandmarkTable::LandmarkTable(const Roadmap& g) {
  constexpr std::size_t L = kLandmarks;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = g.num_vertices();
  component_.assign(n, kAbsent);
  dist_.assign(n * L, 0.0);

  // Components by BFS from each lowest unlabelled id; `members` doubles as
  // the BFS queue, so component c is members[first[c], first[c + 1]).
  std::vector<graph::VertexId> members;
  members.reserve(n);
  std::vector<std::size_t> first;
  for (graph::VertexId root = 0; root < n; ++root) {
    if (component_[root] != kAbsent) continue;
    const auto c = static_cast<std::uint32_t>(first.size());
    first.push_back(members.size());
    component_[root] = c;
    members.push_back(root);
    for (std::size_t i = first.back(); i < members.size(); ++i)
      for (const auto& e : g.edges_of(members[i]))
        if (component_[e.to] == kAbsent) {
          component_[e.to] = c;
          members.push_back(e.to);
        }
  }
  num_components_ = first.size();
  first.push_back(n);

  // Build scratch shared by every Dijkstra: distances (reset to kInf over
  // the component after each run), the indexed heap, and each vertex's
  // distance to its nearest chosen landmark.
  std::vector<double> d(n, kInf);
  std::vector<double> nearest(n, kInf);
  std::vector<std::uint32_t> heap_pos(n, graph::kNotQueued);
  DistHeap heap(ArrayHeapPos{heap_pos.data()});
  heap.reserve(n);
  for (std::size_t c = 0; c < num_components_; ++c) {
    const std::span<const graph::VertexId> comp(members.data() + first[c],
                                                first[c + 1] - first[c]);
    graph::VertexId lm = comp.front();  // BFS root: the lowest id
    std::size_t l = 0;
    for (; l < L; ++l) {
      if (l > 0) {
        // Farthest point from the landmarks so far, ties to the lowest id.
        graph::VertexId best = comp.front();
        for (const graph::VertexId v : comp)
          if (nearest[v] > nearest[best] ||
              (nearest[v] == nearest[best] && v < best))
            best = v;
        if (!(nearest[best] > 0.0)) break;  // every vertex is a landmark
        lm = best;
      }
      dijkstra(g, lm, d, heap);
      for (const graph::VertexId v : comp) {
        dist_[v * L + l] = d[v];
        nearest[v] = std::min(nearest[v], d[v]);
        d[v] = kInf;
      }
    }
    // Too few distinct vertices: repeat the first column.
    for (; l < L; ++l)
      for (const graph::VertexId v : comp) dist_[v * L + l] = dist_[v * L];
  }
  build_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
}

std::size_t LandmarkTable::bytes() const noexcept {
  return dist_.capacity() * sizeof(double) +
         component_.capacity() * sizeof(std::uint32_t);
}

}  // namespace pmpl::planner
