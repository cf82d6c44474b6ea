#pragma once
/// \file transport_des.hpp
/// The discrete-event-simulation side of the transport concept (DESIGN.md
/// §5h; see runtime/transport.hpp for the concept itself).
///
/// A DES has no blocking recv: delivery is inverted control, so the
/// simulation driver (loadbal/ws_engine.cpp) schedules each frame's
/// delivery itself. What a hop costs or risks is decided here, and
/// nowhere else: ClusterSpec latency/bandwidth for the delay, and
/// FaultInjector rolls for drops and extra delay (an empty plan rolls
/// nothing, so a fault-free replay draws no fault randomness at all).

#include <cstdint>
#include <optional>

#include "runtime/fault.hpp"
#include "runtime/topology.hpp"

namespace pmpl::runtime {

/// Prices virtual-time hops among ranks 0..p-1. Each method returns the
/// hop's delivery delay, or nullopt when the injector dropped the frame —
/// already counted in `metrics`, the caller's fault tally.
class DesTransport {
 public:
  DesTransport(const ClusterSpec& cluster, FaultInjector& inject,
               FaultMetrics& metrics) noexcept
      : cluster_(cluster), inject_(inject), metrics_(metrics) {}

  /// Control-plane hop (requests, denies, acks, heartbeats): pays
  /// point-to-point latency.
  std::optional<double> control(std::uint32_t from, std::uint32_t to,
                                double now) {
    return roll(from, to, now, cluster_.latency(from, to));
  }

  /// Work-bearing hop (grants): pays the payload transfer time.
  std::optional<double> bulk(std::uint32_t from, std::uint32_t to,
                             std::uint64_t bytes, double now) {
    return roll(from, to, now, cluster_.transfer_time(from, to, bytes));
  }

  /// Termination-token hop: rolls the plan's token faults on top of the
  /// link's. A dropped token is counted in tokens_lost.
  std::optional<double> token(std::uint32_t from, std::uint32_t to,
                              double now) {
    double delay = cluster_.latency(from, to);
    if (!inject_.active()) return delay;
    const auto fate = inject_.on_token(from, to, now);
    if (fate.dropped) {
      ++metrics_.tokens_lost;
      return std::nullopt;
    }
    return delay + fate.extra_delay_s;
  }

 private:
  std::optional<double> roll(std::uint32_t from, std::uint32_t to,
                             double now, double delay) {
    if (!inject_.active()) return delay;
    const auto fate = inject_.on_message(from, to, now);
    if (fate.dropped) {
      ++metrics_.messages_dropped;
      return std::nullopt;
    }
    if (fate.extra_delay_s > 0.0) ++metrics_.messages_delayed;
    return delay + fate.extra_delay_s;
  }

  const ClusterSpec& cluster_;
  FaultInjector& inject_;
  FaultMetrics& metrics_;
};

}  // namespace pmpl::runtime
