#pragma once
/// \file indexed_heap.hpp
/// Min-heap of (key, vertex) entries with decrease-key.
///
/// A vertex is queued at most once: pushing a queued vertex lowers its key
/// in place, so the heap never holds more than |V| entries, unlike a lazy
/// heap that keeps one entry per relaxation. Ties on the key pop by
/// ascending vertex id, so the pop order is deterministic: it depends only
/// on the keys, never on the order of the pushes. The heap is 4-ary, which
/// halves its depth; on landmark A* that beat a binary heap.
///
/// The heap does not own its position index. `PosOf` maps a vertex to the
/// `std::uint32_t` in which the heap records that vertex's slot, or
/// `kNotQueued` when it is not queued. Callers keep that field next to the
/// rest of their per-vertex state (a flat array for the landmark Dijkstra,
/// the per-vertex search record for A*) and set it to `kNotQueued` before
/// the vertex's first push.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/adjacency_graph.hpp"

namespace pmpl::graph {

inline constexpr std::uint32_t kNotQueued = 0xffffffffu;

template <typename PosOf>
class IndexedHeap {
 public:
  explicit IndexedHeap(PosOf pos_of = {}) : pos_of_(pos_of) {}

  /// Empty the heap and rebind its position index. Positions of vertices
  /// still queued are not reset: the caller resets its own per-vertex state.
  void reset(PosOf pos_of) noexcept {
    heap_.clear();
    pos_of_ = pos_of;
  }
  void reserve(std::size_t n) { heap_.reserve(n); }

  bool empty() const noexcept { return heap_.empty(); }

  /// Insert `v` with `key`, or lower its queued key to `key`.
  void push_or_decrease(VertexId v, double key) {
    std::uint32_t& pos = pos_of_(v);
    if (pos == kNotQueued) {
      pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(entry_of(key, v));
    }
    sift_up(pos, entry_of(key, v));
  }

  /// Remove and return the vertex with the least (key, id).
  VertexId pop() {
    const VertexId top = vertex_of(heap_.front());
    pos_of_(top) = kNotQueued;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;
  // An entry is its order key: the key's bits, mapped so that unsigned
  // order is numeric order (flip every bit of a negative key, only the
  // sign bit of any other), above the vertex id in the low 32 bits. One
  // integer compare then orders entries by (key, id), without the branch
  // on equal keys that mispredicts in a busy heap.
  using Entry = unsigned __int128;
  static Entry entry_of(double key, VertexId v) noexcept {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(key);
    bits ^= (bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
    return (static_cast<Entry>(bits) << 32) | v;
  }
  static VertexId vertex_of(Entry e) noexcept {
    return static_cast<VertexId>(e);
  }
  static bool before(Entry a, Entry b) noexcept { return a < b; }
  void place(std::size_t i, Entry e) noexcept {
    heap_[i] = e;
    pos_of_(vertex_of(e)) = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, Entry e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }
  void sift_down(std::size_t i, Entry e) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t child = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[child])) child = c;
      if (!before(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  PosOf pos_of_;
};

}  // namespace pmpl::graph
