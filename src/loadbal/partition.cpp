#include "loadbal/partition.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

#include "geometry/morton.hpp"

namespace pmpl::loadbal {

Assignment partition_block(std::size_t items, std::uint32_t parts) {
  assert(parts > 0);
  Assignment a(items);
  if (items == 0) return a;
  // ceil-sized blocks so the first (items % parts) parts get one extra.
  const std::size_t base = items / parts;
  const std::size_t extra = items % parts;
  std::size_t idx = 0;
  for (std::uint32_t part = 0; part < parts; ++part) {
    const std::size_t count = base + (part < extra ? 1 : 0);
    for (std::size_t i = 0; i < count && idx < items; ++i) a[idx++] = part;
  }
  return a;
}

Assignment partition_greedy_lpt(std::span<const double> weights,
                                std::uint32_t parts) {
  assert(parts > 0);
  const std::size_t n = weights.size();
  Assignment a(n, 0);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return weights[x] > weights[y];
  });
  // Min-heap of (load, part).
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::uint32_t part = 0; part < parts; ++part)
    heap.emplace(0.0, part);
  for (std::uint32_t item : order) {
    auto [load, part] = heap.top();
    heap.pop();
    a[item] = part;
    heap.emplace(load + weights[item], part);
  }
  return a;
}

Assignment partition_sfc(std::span<const double> weights,
                         std::span<const geo::Vec3> centroids,
                         const geo::Aabb& bounds, std::uint32_t parts) {
  assert(parts > 0);
  const std::size_t n = weights.size();
  assert(centroids.size() == n);
  Assignment a(n, 0);
  if (n == 0) return a;

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = geo::morton_key(centroids[i], bounds);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return keys[x] < keys[y];
  });

  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double target = total / parts;
  double acc = 0.0;
  std::uint32_t part = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::uint32_t item = order[idx];
    const std::size_t items_left = n - idx;
    const std::uint32_t parts_left = parts - part;
    // Close the current part when it reached its weight target, or when
    // the remaining items are only just enough to keep every remaining
    // part non-empty.
    const bool weight_full =
        acc >= target * static_cast<double>(part + 1) && part + 1 < parts;
    const bool must_advance =
        items_left <= parts_left - 1 && part + 1 < parts;
    if (weight_full || must_advance) ++part;
    a[item] = part;
    acc += weights[item];
  }
  return a;
}

}  // namespace pmpl::loadbal
