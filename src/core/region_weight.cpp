#include "core/region_weight.hpp"

#include <algorithm>

namespace pmpl::core {

std::vector<double> weights_from_sample_counts(
    const std::vector<std::uint32_t>& samples_per_region) {
  std::vector<double> w;
  w.reserve(samples_per_region.size());
  // +1 smooths empty regions: moving an empty region is nearly free but
  // not worthless (its later region-connection bookkeeping is not zero).
  for (const std::uint32_t c : samples_per_region)
    w.push_back(static_cast<double>(c) + 1.0);
  return w;
}

std::vector<double> weights_k_rays(const env::Environment& e,
                                   const RadialRegions& regions,
                                   std::size_t k_rays, std::uint64_t seed,
                                   std::uint64_t* ray_casts) {
  std::vector<double> w(regions.size(), 0.0);
  collision::CollisionStats stats;
  for (std::uint32_t id = 0; id < regions.size(); ++id) {
    Xoshiro256ss rng(derive_seed(seed, id));
    double total = 0.0;
    for (std::size_t i = 0; i < k_rays; ++i) {
      // Direction toward a random point in the cone.
      const geo::Vec3 target = regions.sample_in_cone(id, rng);
      const geo::Vec3 d = target - regions.root();
      const double len = d.norm();
      if (len <= 0.0) continue;
      const geo::Ray ray{regions.root(), d / len};
      const auto hit = e.checker().raycast(ray, &stats);
      const double reach =
          hit ? std::min(*hit, regions.radius()) : regions.radius();
      total += reach;
    }
    w[id] = total / static_cast<double>(std::max<std::size_t>(1, k_rays)) +
            1e-9;
  }
  if (ray_casts != nullptr) *ray_casts = stats.ray_casts;
  return w;
}

}  // namespace pmpl::core
