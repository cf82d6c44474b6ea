#pragma once
/// \file query.hpp
/// Roadmap query processing: connect start/goal, extract a path.
///
/// Queries attach start and goal through a temporary *overlay* — validated
/// attachment edges held outside the roadmap — so the roadmap itself is
/// `const` and never grows. That is what makes concurrent queries against
/// one shared (snapshot) roadmap sound: any number of readers may query the
/// same `const Roadmap&` at once, and a query leaves no residue behind.
/// (Earlier revisions appended the two query vertices to the caller's
/// roadmap; that wart is gone.)

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "env/environment.hpp"
#include "graph/indexed_heap.hpp"
#include "planner/landmarks.hpp"
#include "planner/roadmap.hpp"
#include "planner/stats.hpp"

namespace pmpl::planner {

/// One validated attachment edge from a query endpoint (start or goal) into
/// the roadmap: the vertex it reaches and the metric length of the local
/// plan that reached it.
struct AttachEdge {
  graph::VertexId to = graph::kInvalidVertex;
  double length = 0.0;
};

/// Reusable per-worker A* state. A vertex's record is valid only where its
/// `stamp` equals the current generation, so a search resets nothing up
/// front: it bumps the generation and touches only the vertices it reaches.
/// One instance serves any number of sequential searches (over roadmaps of
/// any size); it must not be shared by concurrent searches.
struct SearchScratch {
  /// Everything the search keeps per vertex, in one 32-byte record.
  struct Node {
    double dist;             ///< best path cost from start found so far
    double h;                ///< heuristic, computed once per search
    graph::VertexId prev;    ///< predecessor on that path
    std::uint32_t stamp;     ///< generation that last touched the record
    std::uint32_t heap_pos;  ///< slot in `open`, or graph::kNotQueued
  };
  struct NodeHeapPos {
    Node* nodes = nullptr;
    std::uint32_t& operator()(graph::VertexId v) const noexcept {
      return nodes[v].heap_pos;
    }
  };

  std::vector<Node> nodes;
  std::uint32_t generation = 0;
  /// Open set keyed by f = dist + h, ties by ascending vertex id.
  graph::IndexedHeap<NodeHeapPos> open;
  /// The virtual goal's landmark row in one component that holds goal
  /// edges, folded once per search over that component's goal edges i:
  /// lo[l] = max_i (d_l(a_i) - len_i), hi[l] = min_i (d_l(a_i) + len_i).
  struct GoalRow {
    std::uint32_t component;
    std::array<double, LandmarkTable::kLandmarks> lo, hi;
  };
  /// One row per distinct goal component, in order of first goal edge.
  std::vector<GoalRow> goal_rows;
  std::size_t expanded = 0;  ///< vertices expanded by the last search
};

/// A* over the roadmap plus a two-vertex overlay: virtual `start` connects
/// into `g` via `start_edges`, virtual `goal` is reached from any vertex
/// named in `goal_edges`. The roadmap is read-only; the overlay lives in
/// the search state. Returns the configuration path start..goal, or
/// nullopt when the overlay does not connect.
///
/// The heuristic is the C-space metric distance to `goal` (admissible: edge
/// lengths are metric lengths). With `landmarks` (built over this same `g`)
/// it is the larger of that and the ALT bound against the virtual goal,
///   max over landmarks l of max(d_l(v) - lo_l, hi_l - d_l(v)),
/// with lo_l, hi_l folded from the goal edges in v's component
/// (`SearchScratch::GoalRow`): O(L) per touched vertex whatever the number
/// of goal edges. hi_l is landmark l's exact overlay distance to the goal,
/// and each goal edge's own bound |d_l(v) - d_l(a.to)| + a.length is at
/// least the row's, so the bound is admissible; it has slope +-1 in d_l(v)
/// and is at most a.length at a.to, so it is consistent on the overlay
/// graph. Vertices whose component holds no goal edge are never queued,
/// and when no start edge shares a component with any goal edge the call
/// returns nullopt without searching. The table only prunes the search:
/// the answer is the same shortest path. It can differ only when two paths
/// cost exactly the same, where either heuristic may settle the tie its own
/// way.
///
/// Deterministic: ties in the open set break by ascending vertex id, and
/// the attachment lists are consumed in the order given — so identical
/// inputs produce bit-identical paths regardless of caller threading.
/// `scratch` (nullptr: a temporary) carries state across calls only to
/// avoid allocation and per-vertex resets.
std::optional<std::vector<cspace::Config>> find_path_with_attachments(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::span<const AttachEdge> start_edges,
    std::span<const AttachEdge> goal_edges,
    const LandmarkTable* landmarks = nullptr,
    SearchScratch* scratch = nullptr);

/// Connect `start` and `goal` to the roadmap via local plans to their k
/// nearest vertices, then run A* (metric heuristic only: this is the
/// reference answer the service's landmark-guided A* must match). On
/// success returns the configuration path start..goal. The roadmap is never
/// mutated: start and goal attach through an overlay
/// (`find_path_with_attachments`), so repeated or concurrent queries need
/// no defensive copy.
std::optional<std::vector<cspace::Config>> query_roadmap(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::size_t k_neighbors, double resolution,
    PlannerStats* stats = nullptr);

/// Total metric length of a configuration path.
double path_length(const env::Environment& e,
                   const std::vector<cspace::Config>& path);

/// Validate an entire configuration path at the given resolution (every
/// segment re-checked); true when collision-free.
bool path_valid(const env::Environment& e,
                const std::vector<cspace::Config>& path, double resolution,
                PlannerStats* stats = nullptr);

}  // namespace pmpl::planner
