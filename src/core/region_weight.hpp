#pragma once
/// \file region_weight.hpp
/// Per-region work estimators (paper §III-B).
///
/// PRM: "a good metric for approximating the amount of work that a region
/// will generate is the number of samples in the roadmap that lie within
/// that region" — `weights_from_sample_counts`. The analytic alternative
/// for the model environment is the region's exact free volume
/// (model/model_env.hpp).
///
/// RRT: the k-random-rays probe — cast k rays from the region origin and
/// average the distance to the first obstacle — which the paper shows is a
/// *poor* estimator (Fig 10b) unless k is made expensively large.

#include <cstdint>
#include <vector>

#include "core/radial_regions.hpp"
#include "core/region_grid.hpp"
#include "env/environment.hpp"

namespace pmpl::core {

/// PRM weight: samples generated per region (measured during the cheap
/// sampling phase).
std::vector<double> weights_from_sample_counts(
    const std::vector<std::uint32_t>& samples_per_region);

/// RRT k-random-rays weight: for each radial region, cast `k_rays` rays
/// from the root in directions inside the region's cone and average
/// min(distance-to-obstacle, radius). Returns the per-ray count of
/// collision ray casts in `ray_casts` when non-null (the probe's cost,
/// which the paper notes makes a high-k probe expensive).
std::vector<double> weights_k_rays(const env::Environment& e,
                                   const RadialRegions& regions,
                                   std::size_t k_rays, std::uint64_t seed,
                                   std::uint64_t* ray_casts = nullptr);

}  // namespace pmpl::core
