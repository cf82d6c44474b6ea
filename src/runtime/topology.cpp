#include "runtime/topology.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace pmpl::runtime {

void ClusterSpec::validate(std::string_view caller) const {
  const auto fail = [&](const char* what) {
    throw std::invalid_argument(std::string(caller) + ": cluster." + what);
  };
  if (cores_per_node == 0) fail("cores_per_node must be > 0");
  if (!std::isfinite(local_latency_s) || local_latency_s < 0.0)
    fail("local_latency_s is not finite and >= 0");
  if (!std::isfinite(remote_latency_s) || remote_latency_s < 0.0)
    fail("remote_latency_s is not finite and >= 0");
  if (!(bandwidth_bps > 0.0)) fail("bandwidth_bps must be > 0");
}

ProcessMesh::ProcessMesh(std::uint32_t p) : p_(p == 0 ? 1 : p) {
  // Largest divisor-free near-square: cols = ceil(sqrt(p)), rows to cover.
  cols_ = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(p_))));
  if (cols_ == 0) cols_ = 1;
  rows_ = (p_ + cols_ - 1) / cols_;
}

std::vector<std::uint32_t> ProcessMesh::neighbors(std::uint32_t rank) const {
  std::vector<std::uint32_t> out;
  out.reserve(4);
  const std::uint32_t r = row_of(rank);
  const std::uint32_t c = col_of(rank);
  auto add = [&](std::int64_t rr, std::int64_t cc) {
    if (rr < 0 || cc < 0 || rr >= rows_ || cc >= cols_) return;
    const std::uint32_t n =
        static_cast<std::uint32_t>(rr) * cols_ + static_cast<std::uint32_t>(cc);
    if (n < p_ && n != rank) out.push_back(n);
  };
  add(static_cast<std::int64_t>(r) - 1, c);
  add(static_cast<std::int64_t>(r) + 1, c);
  add(r, static_cast<std::int64_t>(c) - 1);
  add(r, static_cast<std::int64_t>(c) + 1);
  return out;
}

std::uint32_t ProcessMesh::hops(std::uint32_t a, std::uint32_t b) const noexcept {
  const auto dr = static_cast<std::int64_t>(row_of(a)) -
                  static_cast<std::int64_t>(row_of(b));
  const auto dc = static_cast<std::int64_t>(col_of(a)) -
                  static_cast<std::int64_t>(col_of(b));
  return static_cast<std::uint32_t>(std::llabs(dr) + std::llabs(dc));
}

}  // namespace pmpl::runtime
