#include "planner/landmarks.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>

namespace pmpl::planner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kAbsent = 0xffffffffu;

/// Binary min-heap of (distance, vertex) entries with decrease-key through
/// a position index: it never holds more than |V| entries, unlike a lazy
/// heap that keeps one entry per relaxation.
class IndexedHeap {
 public:
  explicit IndexedHeap(std::size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

  bool empty() const noexcept { return heap_.empty(); }

  /// Insert `v` with distance `key`, or lower its queued distance to `key`.
  void push_or_decrease(graph::VertexId v, double key) {
    if (pos_[v] == kAbsent) {
      pos_[v] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back({key, v});
    }
    sift_up(pos_[v], {key, v});
  }

  graph::VertexId pop() {
    const graph::VertexId top = heap_.front().v;
    pos_[top] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

 private:
  struct Entry {
    double key;
    graph::VertexId v;
  };
  // Key order with ties broken by vertex id, so pops are deterministic.
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.key != b.key ? a.key < b.key : a.v < b.v;
  }
  void place(std::size_t i, const Entry& e) noexcept {
    heap_[i] = e;
    pos_[e.v] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, const Entry& e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }
  void sift_down(std::size_t i, const Entry& e) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  std::vector<std::uint32_t> pos_;
  std::vector<Entry> heap_;
};

/// Single-source graph distances from `src` into `d`, which must be kInf
/// on every vertex of src's component (and is left holding the result).
void dijkstra(const Roadmap& g, graph::VertexId src, std::vector<double>& d,
              IndexedHeap& heap) {
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
  IndexedHeap heap(n);
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
