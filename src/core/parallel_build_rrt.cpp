#include "core/parallel_build_rrt.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace pmpl::core {

namespace {

/// Everything that affects the forest (worker count excluded: the result
/// is placement-independent by construction).
std::uint64_t rrt_fingerprint(const env::Environment& e,
                              const RadialRegions& regions,
                              const cspace::Config& root,
                              const ParallelRrtConfig& config) {
  std::uint64_t h = fp_environment(e);
  h = fp_mix(h, static_cast<std::uint64_t>(regions.size()));
  h = fp_mix(h, static_cast<std::uint64_t>(config.total_nodes));
  h = fp_mix(h, config.seed);
  h = fp_mix(h, kRrtParams.step);
  h = fp_mix(h, kRrtParams.resolution);
  h = fp_mix(h, static_cast<std::uint64_t>(kRrtParams.max_nodes));
  h = fp_mix(h, static_cast<std::uint64_t>(kRrtParams.max_iterations));
  h = fp_mix(h, static_cast<std::uint64_t>(kRrtIterationFactor));
  h = fp_mix(h, static_cast<std::uint64_t>(kRrtBoundaryAttempts));
  h = fp_mix(h, kRrtConeOverlap);
  for (std::size_t i = 0; i < root.size(); ++i) h = fp_mix(h, root[i]);
  return h;
}

}  // namespace

RegionTask rrt_region_task(const env::Environment& e,
                           const RadialRegions& regions,
                           const cspace::Config& root,
                           const ParallelRrtConfig& config) {
  return [&e, &regions, root, config](std::uint32_t r, planner::Roadmap& local,
                                      planner::PlannerStats&,
                                      planner::PlannerStats& build) {
    planner::RrtParams params = kRrtParams;
    params.max_nodes =
        std::max<std::size_t>(2, config.total_nodes / regions.size());
    params.max_iterations = kRrtIterationFactor * params.max_nodes;

    runtime::TraceBuffer* tb =
        config.tracer ? config.tracer->thread_track() : nullptr;
    runtime::TraceSpan span(config.tracer, tb, "grow", r);
    planner::RrtBranch branch(e, local, root, r, params);
    Xoshiro256ss rng(derive_seed(config.seed, r));
    branch.grow(
        [&](Xoshiro256ss& g) {
          const geo::Vec3 p = regions.sample_in_cone(r, g, kRrtConeOverlap);
          return e.space().at_position(p, g);
        },
        rng, build, config.anytime.cancel);
  };
}

RegionBuildResult parallel_build_rrt(const env::Environment& e,
                                     const RadialRegions& regions,
                                     const cspace::Config& root,
                                     const ParallelRrtConfig& config) {
  RegionPipeline pipeline;
  pipeline.kind = kCheckpointKindRrt;
  pipeline.fingerprint = rrt_fingerprint(e, regions, root, config);
  pipeline.seed = config.seed;
  pipeline.workers = config.workers;
  pipeline.anytime = config.anytime;
  pipeline.tracer = config.tracer;
  pipeline.task_span = "branch";
  pipeline.connect_track = "branch-connect";
  pipeline.connect.params.resolution = kRrtParams.resolution;
  // Branch connection never closes a cycle.
  pipeline.connect.params.skip_same_component = true;
  pipeline.connect.max_attempts = kRrtBoundaryAttempts;
  return build_regions_anytime(
      regions.size(), pipeline, rrt_region_task(e, regions, root, config),
      connect_regions(e, regions.adjacency_edges(), pipeline));
}

}  // namespace pmpl::core
