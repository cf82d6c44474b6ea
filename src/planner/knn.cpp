#include "planner/knn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace pmpl::planner {

namespace {

/// Max-heap on the canonical order, so the *worst* kept neighbor is at the
/// front; sort_heap then yields ascending canonical order.
struct WorstFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return neighbor_before(a, b);
  }
};

void heap_consider(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), WorstFirst{});
  } else if (neighbor_before(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), WorstFirst{});
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), WorstFirst{});
  }
}

/// Runs `nearest(q)` for every query, packing the results into `out`.
template <class Nearest>
void pack_batch(std::span<const cspace::Config> queries, KnnBatch& out,
                Nearest&& nearest) {
  out.neighbors.clear();
  out.offsets.clear();
  out.offsets.reserve(queries.size() + 1);
  out.offsets.push_back(0);
  for (const auto& q : queries) {
    const auto r = nearest(q);
    out.neighbors.insert(out.neighbors.end(), r.begin(), r.end());
    out.offsets.push_back(static_cast<std::uint32_t>(out.neighbors.size()));
  }
}

}  // namespace

std::span<const Neighbor> BruteForceKnn::nearest(const cspace::Config& q,
                                                 std::size_t k,
                                                 PlannerStats* stats) {
  if (stats) ++stats->knn_queries;
  heap_.clear();
  if (k == 0) return {};
  heap_.reserve(std::min(k, ids_.size()) + 1);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (stats) ++stats->knn_candidates;
    heap_consider(heap_, k, {ids_[i], space_->distance(q, configs_[i])});
  }
  std::sort_heap(heap_.begin(), heap_.end(), WorstFirst{});
  return {heap_.data(), heap_.size()};
}

void BruteForceKnn::nearest_batch(std::span<const cspace::Config> queries,
                                  std::size_t k, KnnBatch& out,
                                  PlannerStats* stats) {
  pack_batch(queries, out, [&](const auto& q) { return nearest(q, k, stats); });
}

KdTreeKnn::KdTreeKnn(const cspace::CSpace& space, const Roadmap& g)
    : KdTreeKnn(space) {
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  ids_.reserve(n);
  vals_.reserve(n * dim_);
  pos_.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    const cspace::Config& c = g.vertex(v).cfg;
    assert(c.size() == dim_);
    ids_.push_back(v);
    vals_.insert(vals_.end(), c.begin(), c.begin() + dim_);
    pos_.push_back(space.position(c));
  }
  rebuild();
}

const cspace::Config& KdTreeKnn::point(std::size_t m,
                                       cspace::Config& out) const {
  out.resize(dim_);
  std::copy_n(vals_.data() + m * dim_, dim_, out.data());
  return out;
}

void KdTreeKnn::insert(graph::VertexId id, const cspace::Config& c) {
  assert(c.size() == dim_);
  ids_.push_back(id);
  vals_.insert(vals_.end(), c.begin(), c.begin() + dim_);
  pos_.push_back(space_->position(c));
  // Rebuild when the unindexed buffer exceeds half the indexed size (and at
  // least 32 points), keeping amortized insertion cheap.
  const std::size_t buffered = ids_.size() - indexed_;
  if (buffered >= 32 && buffered * 2 >= indexed_) rebuild();
}

void KdTreeKnn::rebuild() {
  const std::size_t n = ids_.size();
  nodes_.clear();
  nodes_.reserve(2 * n / kLeafSize + 2);
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<std::uint32_t>(i);
  root_ = n == 0 ? kNoNode : build_subtree(0, n);
  // The recursion only permutes within its own subrange, so perm_ ends up
  // leaf-contiguous; mirror it into the SoA coordinate arrays.
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3& p = pos_[perm_[i]];
    px_[i] = p.x;
    py_[i] = p.y;
    pz_[i] = p.z;
  }
  indexed_ = n;
}

std::uint32_t KdTreeKnn::build_subtree(std::size_t lo, std::size_t hi) {
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (hi - lo <= kLeafSize) {
    nodes_[idx] = {0.0, static_cast<std::uint32_t>(lo),
                   static_cast<std::uint32_t>(hi - lo), kLeafAxis};
    return idx;
  }
  // Split along the axis of widest positional spread; a degenerate
  // zero-width spread still partitions, its split plane just never prunes.
  geo::Vec3 cmin = pos_[perm_[lo]];
  geo::Vec3 cmax = cmin;
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const geo::Vec3& p = pos_[perm_[i]];
    cmin = geo::min(cmin, p);
    cmax = geo::max(cmax, p);
  }
  const geo::Vec3 extent = cmax - cmin;
  std::uint8_t axis = 0;
  if (extent.y > extent[axis]) axis = 1;
  if (extent.z > extent[axis]) axis = 2;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(perm_.begin() + static_cast<long>(lo),
                   perm_.begin() + static_cast<long>(mid),
                   perm_.begin() + static_cast<long>(hi),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return pos_[a][axis] < pos_[b][axis];
                   });
  // Median point goes to the right half: left holds coords <= split,
  // right holds coords >= split, which is what the |delta| bound assumes.
  const double split = pos_[perm_[mid]][axis];
  const std::uint32_t left = build_subtree(lo, mid);
  const std::uint32_t right = build_subtree(mid, hi);
  nodes_[idx] = {split, left, right, axis};
  return idx;
}

std::span<const Neighbor> KdTreeKnn::nearest(const cspace::Config& q,
                                             std::size_t k,
                                             PlannerStats* stats) {
  // Lazy-rebuild guard: a long insert burst can leave a large fraction of
  // the points in the linear buffer (the insert-time policy only fires
  // every tree/2 inserts); if the buffer dominates, fold it into the tree
  // once instead of paying an O(buffer) scan on every query.
  const std::size_t buffered = ids_.size() - indexed_;
  if (buffered >= 32 && buffered * 4 >= indexed_) rebuild();
  return std::as_const(*this).nearest(q, k, scratch_, stats);
}

std::span<const Neighbor> KdTreeKnn::nearest(const cspace::Config& q,
                                             std::size_t k,
                                             KnnScratch& scratch,
                                             PlannerStats* stats) const {
  std::vector<Neighbor>& heap = scratch.heap;
  std::vector<KnnScratch::Visit>& stack = scratch.stack;
  if (stats) ++stats->knn_queries;
  heap.clear();
  if (k == 0) return {};
  heap.reserve(std::min(k, ids_.size()) + 1);
  const geo::Vec3 qp = space_->position(q);

  stack.clear();
  if (root_ != kNoNode) stack.push_back({root_, 0.0});
  while (!stack.empty()) {
    const KnnScratch::Visit v = stack.back();
    stack.pop_back();
    // Strict >: an equal bound may still hide an equal-distance point with
    // a smaller id, which beats the current worst under canonical order.
    if (heap.size() >= k && v.bound > heap.front().distance) continue;
    const Node& n = nodes_[v.node];
    if (n.axis == kLeafAxis) {
      const std::size_t first = n.a;
      const std::size_t count = n.b;
      for (std::size_t s = first; s < first + count; ++s) {
        if (stats) ++stats->knn_candidates;
        const double dx = qp.x - px_[s];
        const double dy = qp.y - py_[s];
        const double dz = qp.z - pz_[s];
        // Left-associative sum, matching Vec3::dot/norm bit-for-bit so
        // this positional bound can never exceed the full metric (which
        // only adds a non-negative rotation term on top of it).
        const double pd = std::sqrt((dx * dx + dy * dy) + dz * dz);
        if (heap.size() >= k && pd > heap.front().distance) continue;
        const std::uint32_t m = perm_[s];
        heap_consider(heap, k,
                      {ids_[m], space_->distance(q, point(m, scratch.point))});
      }
      continue;
    }
    const double delta = qp[n.axis] - n.split;
    const std::uint32_t near_child = delta < 0.0 ? n.a : n.b;
    const std::uint32_t far_child = delta < 0.0 ? n.b : n.a;
    // Depth-first into the near child: push the far side (with its
    // tightened bound) first so the near side pops next.
    stack.push_back({far_child, std::max(v.bound, std::fabs(delta))});
    stack.push_back({near_child, v.bound});
  }

  // Points inserted since the last rebuild live in the linear buffer; the
  // same positional lower bound skips the full metric where it cannot win.
  for (std::size_t i = indexed_; i < ids_.size(); ++i) {
    if (stats) ++stats->knn_candidates;
    const double dx = qp.x - pos_[i].x;
    const double dy = qp.y - pos_[i].y;
    const double dz = qp.z - pos_[i].z;
    const double pd = std::sqrt((dx * dx + dy * dy) + dz * dz);
    if (heap.size() >= k && pd > heap.front().distance) continue;
    heap_consider(heap, k,
                  {ids_[i], space_->distance(q, point(i, scratch.point))});
  }
  std::sort_heap(heap.begin(), heap.end(), WorstFirst{});
  return {heap.data(), heap.size()};
}

void KdTreeKnn::nearest_batch(std::span<const cspace::Config> queries,
                              std::size_t k, KnnBatch& out,
                              PlannerStats* stats) {
  pack_batch(queries, out, [&](const auto& q) { return nearest(q, k, stats); });
}

void KdTreeKnn::nearest_batch(std::span<const cspace::Config> queries,
                              std::size_t k, KnnBatch& out,
                              KnnScratch& scratch,
                              PlannerStats* stats) const {
  pack_batch(queries, out,
             [&](const auto& q) { return nearest(q, k, scratch, stats); });
}

}  // namespace pmpl::planner
