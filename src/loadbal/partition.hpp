#pragma once
/// \file partition.hpp
/// Region-graph partitioners.
///
/// The paper computes "high quality partitions of the problem across
/// processing elements" that balance an estimated per-region weight while
/// "preserving the spatial geometry of the subdivision" (§III-B), and uses
/// "a greedy global partitioning algorithm" for the theoretical best-case
/// bound (§IV-B, exact balance is NP-complete). Implemented here:
///
///  - `partition_block`      — the naive mapping: contiguous equal-count
///    blocks of the (row-major) region ordering, i.e. the "1D partitioning
///    of the region mesh" baseline of §IV-B.
///  - `partition_greedy_lpt` — longest-processing-time greedy onto the
///    least-loaded part; the best-balance bound of Fig 4, ignores geometry
///    and edge cut.
///  - `partition_sfc`        — the repartitioner of both drivers: Morton
///    space-filling-curve ordering of the region centroids, then one
///    weighted contiguous split of the curve. Balanced *and* spatially
///    compact; a 1D split of a curve order does not compound its error
///    level by level as recursive bisection does (Saule et al.).

#include <span>

#include "geometry/shapes.hpp"
#include "loadbal/metrics.hpp"

namespace pmpl::loadbal {

/// Contiguous equal-count blocks by item index (weights/geometry ignored).
Assignment partition_block(std::size_t items, std::uint32_t parts);

/// Greedy LPT: heaviest item first onto the least-loaded part. Near-optimal
/// balance; arbitrary geometry.
Assignment partition_greedy_lpt(std::span<const double> weights,
                                std::uint32_t parts);

/// Morton-order `centroids` (keys taken inside `bounds`), then split the
/// curve into `parts` contiguous weighted chunks. A part closes once its
/// running total reaches its share of the weight, so every part's load is
/// at most total/parts + the heaviest item.
Assignment partition_sfc(std::span<const double> weights,
                         std::span<const geo::Vec3> centroids,
                         const geo::Aabb& bounds, std::uint32_t parts);

}  // namespace pmpl::loadbal
