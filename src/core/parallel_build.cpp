#include "core/parallel_build.hpp"

#include <memory>

#include "util/rng.hpp"

namespace pmpl::core {

namespace {

/// Everything that affects the roadmap (worker count excluded: the result
/// is placement-independent by construction).
std::uint64_t prm_fingerprint(const env::Environment& e,
                              const RegionGrid& grid,
                              const ParallelPrmConfig& config) {
  std::uint64_t h = fp_environment(e);
  h = fp_mix(h, static_cast<std::uint64_t>(grid.size()));
  h = fp_mix(h, static_cast<std::uint64_t>(config.total_attempts));
  h = fp_mix(h, config.seed);
  h = fp_mix(h, static_cast<std::uint64_t>(config.prm.k_neighbors));
  h = fp_mix(h, config.prm.resolution);
  h = fp_mix(h, static_cast<std::uint64_t>(config.prm.skip_same_component));
  h = fp_mix(h, static_cast<std::uint64_t>(config.prm.sampler));
  h = fp_mix(h, config.prm.sampler_scale);
  h = fp_mix(h, static_cast<std::uint64_t>(kPrmBuildBoundaryAttempts));
  return h;
}

}  // namespace

RegionTask prm_region_task(const env::Environment& e, const RegionGrid& grid,
                           const ParallelPrmConfig& config) {
  const std::shared_ptr<const planner::Sampler> sampler =
      planner::make_sampler(config.prm.sampler, e.space(), e.validity(),
                            config.prm.sampler_scale);
  return [&e, &grid, config, sampler](std::uint32_t r, planner::Roadmap& local,
                                      planner::PlannerStats& sampling,
                                      planner::PlannerStats& build) {
    const std::size_t nr = grid.size();
    const std::size_t attempts =
        config.total_attempts / nr + (r < config.total_attempts % nr);
    const runtime::CancelToken* cancel = config.anytime.cancel;
    runtime::Tracer* tracer = config.tracer;
    runtime::TraceBuffer* tb = tracer ? tracer->thread_track() : nullptr;
    Xoshiro256ss rng(derive_seed(config.seed, r));
    std::vector<cspace::Config> samples;
    {
      runtime::TraceSpan span(tracer, tb, "sample");
      samples = planner::sample_region_with(*sampler, grid.sampling_box(r),
                                            attempts, rng, sampling, cancel);
    }
    runtime::TraceSpan span(tracer, tb, "connect");
    planner::connect_samples(e, local, samples, 0, config.prm, build, cancel);
  };
}

RegionBuildResult parallel_build_prm(const env::Environment& e,
                                     const RegionGrid& grid,
                                     const ParallelPrmConfig& config) {
  RegionPipeline pipeline;
  pipeline.kind = kCheckpointKindPrm;
  pipeline.fingerprint = prm_fingerprint(e, grid, config);
  pipeline.seed = config.seed;
  pipeline.workers = config.workers;
  pipeline.anytime = config.anytime;
  pipeline.tracer = config.tracer;
  pipeline.task_span = "region";
  pipeline.connect_track = "region-connect";
  pipeline.connect.params = config.prm;
  // Whole-region connection keeps every edge it finds, cycles included.
  pipeline.connect.params.skip_same_component = false;
  pipeline.connect.max_attempts = kPrmBuildBoundaryAttempts;
  return build_regions_anytime(
      grid.size(), pipeline, prm_region_task(e, grid, config),
      connect_regions(e, grid.adjacency_edges(), pipeline));
}

}  // namespace pmpl::core
