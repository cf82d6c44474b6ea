#pragma once
/// \file topology.hpp
/// Cluster topology and communication cost model.
///
/// Models the two machines of the paper's evaluation: H OPPER (Cray XE6,
/// 24 cores/node, Gemini interconnect) and OPTERON-CLUSTER (8 cores/node,
/// InfiniBand). Only the parameters that shape strong-scaling curves are
/// modeled: cores per node (intra- vs inter-node message cost) and
/// latency/bandwidth.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmpl::runtime {

/// Machine description for the DES communication model.
struct ClusterSpec {
  std::string name;
  std::uint32_t cores_per_node = 1;
  double local_latency_s = 5e-7;    ///< same-node message latency
  double remote_latency_s = 2e-6;   ///< cross-node message latency
  double bandwidth_bps = 5e9;       ///< bytes/second for bulk transfers

  /// Cray XE6 "Hopper": 24 cores/node, Gemini 3D-torus-class latency.
  static ClusterSpec hopper() {
    return {"hopper", 24, 4e-7, 1.6e-6, 6e9};
  }

  /// 2,400-core Opteron/InfiniBand cluster: 8 cores/node, higher latency,
  /// lower bandwidth than the Cray.
  static ClusterSpec opteron_cluster() {
    return {"opteron-cluster", 8, 6e-7, 3.2e-6, 1.5e9};
  }

  /// Throw std::invalid_argument, naming `caller` and the field, unless
  /// cores_per_node > 0, both latencies are finite and >= 0 and the
  /// bandwidth is > 0. A zero cores_per_node would divide in node_of; the
  /// DES replays call this before their first message.
  void validate(std::string_view caller) const;

  std::uint32_t node_of(std::uint32_t rank) const noexcept {
    return rank / cores_per_node;
  }

  bool same_node(std::uint32_t a, std::uint32_t b) const noexcept {
    return node_of(a) == node_of(b);
  }

  /// One-way latency of a small control message between two ranks.
  double latency(std::uint32_t from, std::uint32_t to) const noexcept {
    return same_node(from, to) ? local_latency_s : remote_latency_s;
  }

  /// Time to move `bytes` of payload between two ranks.
  double transfer_time(std::uint32_t from, std::uint32_t to,
                       std::uint64_t bytes) const noexcept {
    return latency(from, to) +
           static_cast<double>(bytes) / bandwidth_bps;
  }
};

/// 2D process mesh over P ranks (the DIFFUSIVE steal policy's neighbor
/// structure; paper §III-A assumes processors "arranged in a 2D mesh").
class ProcessMesh {
 public:
  /// Near-square factorization rows x cols >= p; ranks are row-major and
  /// ranks >= p simply do not exist (edge processors have fewer neighbors).
  explicit ProcessMesh(std::uint32_t p);

  std::uint32_t size() const noexcept { return p_; }
  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t cols() const noexcept { return cols_; }

  std::uint32_t row_of(std::uint32_t rank) const noexcept {
    return rank / cols_;
  }
  std::uint32_t col_of(std::uint32_t rank) const noexcept {
    return rank % cols_;
  }

  /// 4-neighborhood (N/S/E/W) of `rank`, clipped to the mesh and to p.
  std::vector<std::uint32_t> neighbors(std::uint32_t rank) const;

  /// Manhattan distance between two ranks (hop count on the mesh).
  std::uint32_t hops(std::uint32_t a, std::uint32_t b) const noexcept;

 private:
  std::uint32_t p_;
  std::uint32_t rows_;
  std::uint32_t cols_;
};

}  // namespace pmpl::runtime
