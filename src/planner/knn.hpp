#pragma once
/// \file knn.hpp
/// k-nearest-neighbor search over configurations.
///
/// Global nearest-neighbor search is the classic bottleneck of parallel
/// sampling-based planning (paper §I); the subdivision algorithms avoid it
/// by keeping searches regional. `KdTreeKnn` is the finder every planner
/// and the service use: a leaf-bucketed kd-tree over workspace
/// *positions* with deferred rebuilds for incremental insertion. Leaves
/// hold 8–16 points in structure-of-arrays layout so a leaf scan is a
/// tight loop over contiguous doubles; traversal is iterative with an
/// explicit stack. Candidates are ranked by the full C-space metric;
/// positional distance is a valid lower bound on every metric we define
/// (rotation adds a non-negative term), so results are exact — the tree
/// only loses pruning power, not accuracy. `BruteForceKnn` (exact linear
/// scan) is the reference it is checked against.
///
/// Both return results in the *canonical neighbor order* (ascending
/// distance, ties broken by ascending vertex id — see `neighbor_before`),
/// which makes the k-best set a total order: any exact finder returns
/// bit-identical results regardless of scan or traversal order. That
/// determinism is load-bearing for roadmap reproducibility.
///
/// A kd-tree answers `nearest(q, k)` from per-finder scratch, one thread at
/// a time (the planners own one finder per region task), and the `const`
/// `nearest(q, k, scratch)` from a caller-owned `KnnScratch`, so many
/// threads can share one frozen index: each published roadmap snapshot
/// owns one (service/snapshot.hpp). `nearest_batch()` packs a query batch
/// into a reusable `KnnBatch`. No query allocates once warm, and every
/// query counts the candidates it visits so k-NN work feeds the load model.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cspace/space.hpp"
#include "planner/roadmap.hpp"
#include "planner/stats.hpp"

namespace pmpl::planner {

/// A neighbor candidate: vertex id and metric distance to the query.
struct Neighbor {
  graph::VertexId id;
  double distance;
};

/// Canonical neighbor order: ascending distance, ties broken by ascending
/// vertex id. The id tie-break totally orders candidates (ids are unique),
/// so the k nearest are a unique set in a unique order no matter how a
/// finder visits points.
inline bool neighbor_before(const Neighbor& a, const Neighbor& b) noexcept {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// Flat result buffer for `nearest_batch`: query i's neighbors occupy
/// [offsets[i], offsets[i+1]) of `neighbors`. Reuse the same instance
/// across batches to keep the connection phase allocation-free once warm.
struct KnnBatch {
  std::vector<Neighbor> neighbors;
  std::vector<std::uint32_t> offsets;  ///< size = query count + 1

  std::span<const Neighbor> of(std::size_t i) const noexcept {
    return {neighbors.data() + offsets[i], neighbors.data() + offsets[i + 1]};
  }
};

/// Search state of the `const` kd-tree queries: the candidate heap and the
/// traversal stack, owned by the caller (one per thread), the same idiom
/// as `SearchScratch`.
struct KnnScratch {
  /// Deferred subtree visit: `bound` is a positional lower bound on the
  /// distance from the query to anything in the subtree.
  struct Visit {
    std::uint32_t node;
    double bound;
  };
  std::vector<Neighbor> heap;  ///< holds the last result
  std::vector<Visit> stack;
  cspace::Config point;  ///< a stored point, rebuilt for the metric
};

/// Exact linear scan under the full C-space metric: the reference the
/// kd-tree is checked against (tests, benches).
class BruteForceKnn {
 public:
  explicit BruteForceKnn(const cspace::CSpace& space) : space_(&space) {}

  void insert(graph::VertexId id, const cspace::Config& c) {
    ids_.push_back(id);
    configs_.push_back(c);
  }

  void reserve(std::size_t n) {
    ids_.reserve(n);
    configs_.reserve(n);
  }

  /// The k nearest stored configs to `q`, in canonical order (fewer than k
  /// if fewer are stored). The span aliases finder scratch: invalidated by
  /// the next query or insert.
  std::span<const Neighbor> nearest(const cspace::Config& q, std::size_t k,
                                    PlannerStats* stats = nullptr);

  /// `nearest` for every query, packed into `out` (cleared first).
  void nearest_batch(std::span<const cspace::Config> queries, std::size_t k,
                     KnnBatch& out, PlannerStats* stats = nullptr);

  std::size_t size() const noexcept { return ids_.size(); }

 private:
  const cspace::CSpace* space_;
  std::vector<graph::VertexId> ids_;
  std::vector<cspace::Config> configs_;
  std::vector<Neighbor> heap_;  ///< query scratch; holds the last result
};

/// The finder: a leaf-bucketed kd-tree over positions with an insertion
/// buffer; the tree is rebuilt when the buffer outgrows a fraction of the
/// tree (amortized O(log n) insertion without rebalancing machinery).
/// Internal nodes store only a split plane; points live in leaf buckets
/// laid out SoA (`px_/py_/pz_`) so the per-leaf distance scan is
/// branch-light and cache-friendly.
class KdTreeKnn {
 public:
  explicit KdTreeKnn(const cspace::CSpace& space)
      : space_(&space), dim_(space.value_count()) {}

  /// Bulk build: index every vertex of `g` under its vertex id in one
  /// tree, with no unindexed tail.
  KdTreeKnn(const cspace::CSpace& space, const Roadmap& g);

  void insert(graph::VertexId id, const cspace::Config& c);

  /// The k nearest stored configs to `q`, in canonical order; fewer than k
  /// if the structure holds fewer points. First folds a dominant insertion
  /// buffer into the tree (lazy rebuild). The span aliases finder scratch:
  /// it is invalidated by the next query or insert.
  std::span<const Neighbor> nearest(const cspace::Config& q, std::size_t k,
                                    PlannerStats* stats = nullptr);

  /// The same search, read-only: state lives in the caller's `scratch`
  /// and the span aliases `scratch.heap`. Safe from any number of threads
  /// at once, each with its own scratch, while nothing inserts.
  std::span<const Neighbor> nearest(const cspace::Config& q, std::size_t k,
                                    KnnScratch& scratch,
                                    PlannerStats* stats = nullptr) const;

  /// Run `nearest` for every query, packing results into `out` (cleared
  /// first). Results are identical to k single queries in order.
  void nearest_batch(std::span<const cspace::Config> queries, std::size_t k,
                     KnnBatch& out, PlannerStats* stats = nullptr);
  void nearest_batch(std::span<const cspace::Config> queries, std::size_t k,
                     KnnBatch& out, KnnScratch& scratch,
                     PlannerStats* stats = nullptr) const;

  std::size_t size() const noexcept { return ids_.size(); }

  /// Points covered by the built tree; the rest sit in the linear
  /// insertion buffer. Exposed for rebuild-policy tests.
  std::size_t indexed_size() const noexcept { return indexed_; }

 private:
  static constexpr std::size_t kLeafSize = 12;
  static constexpr std::uint8_t kLeafAxis = 3;
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  struct Node {
    double split = 0.0;     ///< internal: split-plane coordinate
    std::uint32_t a = 0;    ///< internal: left child; leaf: first slot
    std::uint32_t b = 0;    ///< internal: right child; leaf: point count
    std::uint8_t axis = 0;  ///< 0..2 for internal nodes, kLeafAxis for leaves
  };

  void rebuild();
  std::uint32_t build_subtree(std::size_t lo, std::size_t hi);

  /// Stored point m as a configuration of the space, in `out`.
  const cspace::Config& point(std::size_t m, cspace::Config& out) const;

  const cspace::CSpace* space_;
  std::size_t dim_;  ///< values per configuration of the space

  // Master point storage, indexed by insertion order. A point keeps only
  // its dim_ configuration values (all the metric reads), not a whole
  // Config (136 bytes).
  std::vector<graph::VertexId> ids_;
  std::vector<double> vals_;  ///< vals_[m * dim_ + i]
  std::vector<geo::Vec3> pos_;

  // Built tree. perm_ maps leaf-contiguous slots to master indices;
  // px_/py_/pz_ hold slot positions as SoA for the leaf distance scan.
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> perm_;
  std::vector<double> px_, py_, pz_;
  std::uint32_t root_ = kNoNode;
  std::size_t indexed_ = 0;  ///< points included in the built tree

  KnnScratch scratch_;  ///< the non-const queries' scratch
};

// Compatibility names, used only by perfbench/; everything else names
// KdTreeKnn directly.
using NeighborFinder = KdTreeKnn;
inline std::unique_ptr<KdTreeKnn> make_neighbor_finder(
    const cspace::CSpace& space) { return std::make_unique<KdTreeKnn>(space); }

}  // namespace pmpl::planner
