#pragma once
/// \file prm.hpp
/// Sequential Probabilistic Roadmap Method (Kavraki et al. 1996).
///
/// The regional building blocks used by Algorithm 1 (uniform subdivision)
/// are exposed as free functions so the parallel drivers can run the phases
/// separately (sample -> [redistribute] -> connect -> region-connect); the
/// `Prm` class composes them into the classic whole-space planner for
/// sequential use and the examples.

#include <optional>
#include <span>
#include <vector>

#include "cspace/local_planner.hpp"
#include "env/environment.hpp"
#include "graph/union_find.hpp"
#include "planner/knn.hpp"
#include "planner/roadmap.hpp"
#include "planner/samplers.hpp"
#include "planner/stats.hpp"
#include "runtime/cancel.hpp"
#include "util/rng.hpp"

namespace pmpl::planner {

/// PRM tuning knobs.
struct PrmParams {
  std::size_t k_neighbors = 6;   ///< connection attempts per sample
  double resolution = 1.0;       ///< local-plan validation step (metric)
  bool skip_same_component = true;  ///< skip attempts inside one component
  SamplerKind sampler = SamplerKind::kUniform;  ///< node generation strategy
  double sampler_scale = 6.0;    ///< sigma / bridge length for the above
};

/// Sampling phase: draw `attempts` uniform samples with positions in `box`,
/// keep the valid ones. Deterministic given `rng`'s seed. A fired `cancel`
/// token stops after the current attempt (bounded overrun: one sample).
std::vector<cspace::Config> sample_region(const env::Environment& e,
                                          const geo::Aabb& box,
                                          std::size_t attempts,
                                          Xoshiro256ss& rng,
                                          PlannerStats& stats,
                                          const runtime::CancelToken* cancel =
                                              nullptr);

/// Sampling phase with an explicit strategy (Gaussian, bridge-test, ...).
std::vector<cspace::Config> sample_region_with(const Sampler& sampler,
                                               const geo::Aabb& box,
                                               std::size_t attempts,
                                               Xoshiro256ss& rng,
                                               PlannerStats& stats,
                                               const runtime::CancelToken*
                                                   cancel = nullptr);

/// The node-connection loop: each vertex of `from` attempts local plans to
/// its k nearest neighbours in `finder`, which holds configurations of
/// `g`. All k-NN queries run as one batch before the first local plan, and
/// candidate edges are validated through a cross-edge window
/// (EdgeBatchPlanner) so the wide validity lanes stay full across short or
/// early-rejecting edges. Commits happen in candidate order and re-check
/// that the edge is still new (and, with `cc` and skip_same_component, that
/// its ends are still apart), so the roadmap and the lp_* / cd.queries
/// counters equal one LocalPlanner::plan per admitted candidate in order;
/// speculation shows only in narrow_tests / bvh_nodes, which count work
/// performed. Successful edges are added to `g` (and merged in `cc` when
/// provided). A fired `cancel` token stops admitting between vertices
/// (bounded overrun: the batched k-NN pass + one window of local plans).
void connect_to_nearest(const env::Environment& e, Roadmap& g,
                        KdTreeKnn& finder,
                        std::span<const graph::VertexId> from,
                        const PrmParams& params, PlannerStats& stats,
                        graph::UnionFind* cc = nullptr,
                        const runtime::CancelToken* cancel = nullptr);

/// Node-connection phase within one vertex set: connect_to_nearest from
/// `ids` over a finder holding `ids`.
void connect_within(const env::Environment& e, Roadmap& g,
                    std::span<const graph::VertexId> ids,
                    const PrmParams& params, PlannerStats& stats,
                    graph::UnionFind* cc = nullptr,
                    const runtime::CancelToken* cancel = nullptr);

/// Node-connection phase of one region from its samples: add `samples` to
/// `g` as vertices of `region`, then connect_within them with a fresh
/// component tracker (so skip_same_component applies). Returns the new ids.
std::vector<graph::VertexId> connect_samples(
    const env::Environment& e, Roadmap& g,
    std::span<const cspace::Config> samples, std::uint32_t region,
    const PrmParams& params, PlannerStats& stats,
    const runtime::CancelToken* cancel = nullptr);

/// Region-connection phase between two vertex sets (adjacent regions):
/// for each vertex of the smaller set, attempt a local plan to its nearest
/// neighbors in the other set, up to `max_attempts` total attempts (closest
/// pairs first). Returns the number of edges added. A fired `cancel` token
/// stops between attempts (bounded overrun: one local plan).
std::size_t connect_between(const env::Environment& e, Roadmap& g,
                            std::span<const graph::VertexId> ids_a,
                            std::span<const graph::VertexId> ids_b,
                            const PrmParams& params, PlannerStats& stats,
                            graph::UnionFind* cc = nullptr,
                            std::size_t max_attempts = 32,
                            const runtime::CancelToken* cancel = nullptr);

/// Classic sequential PRM over the whole C-space.
class Prm {
 public:
  Prm(const env::Environment& e, PrmParams params = {})
      : env_(&e), params_(params) {}

  /// Sample `attempts` configurations and connect the valid ones. With a
  /// `cancel` token, stops cooperatively and keeps the partial roadmap.
  void build(std::size_t attempts, std::uint64_t seed,
             const runtime::CancelToken* cancel = nullptr);

  /// Connect `start` and `goal` to the roadmap and extract a path.
  std::optional<std::vector<cspace::Config>> query(
      const cspace::Config& start, const cspace::Config& goal);

  const Roadmap& roadmap() const noexcept { return map_; }
  Roadmap& roadmap() noexcept { return map_; }
  const PlannerStats& stats() const noexcept { return stats_; }
  const PrmParams& params() const noexcept { return params_; }

 private:
  const env::Environment* env_;
  PrmParams params_;
  Roadmap map_;
  PlannerStats stats_;
};

}  // namespace pmpl::planner
