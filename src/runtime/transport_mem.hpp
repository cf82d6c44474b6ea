#pragma once
/// \file transport_mem.hpp
/// In-process implementation of the Transport interface: p ranks as
/// threads, mailboxes as mutex+condvar deques.
///
/// Exists so the per-rank protocol engine (loadbal/ws_rank.cpp) can be
/// unit-tested — and run under TSan — without forking processes or
/// touching the filesystem. Semantics match SocketTransport: delivery is
/// in send order per peer pair, injected link faults are evaluated
/// receiver-side by FrameFaults (same hash, so a plan behaves alike on
/// both), and `pending` counts delay-parked frames.

#include <condition_variable>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "runtime/transport.hpp"

namespace pmpl::runtime {

/// Shared mailboxes for p ranks in one process. Create the cluster, hand
/// `endpoint(r)` to thread r, join the threads before destruction.
class MemCluster {
 public:
  explicit MemCluster(std::uint32_t p, FaultPlan faults = {})
      : epoch_(std::chrono::steady_clock::now()) {
    ranks_.reserve(p);
    for (std::uint32_t r = 0; r < p; ++r)
      ranks_.push_back(std::make_unique<Endpoint>(*this, r, p, faults));
  }

  Transport& endpoint(std::uint32_t r) { return *ranks_[r]; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

 private:
  /// A frame parked by an injected extra-delay link fault.
  struct Delayed {
    double due_s = 0.0;
    std::uint64_t seq = 0;  ///< arrival order tiebreak
    Frame frame;
    bool operator>(const Delayed& o) const noexcept {
      return due_s != o.due_s ? due_s > o.due_s : seq > o.seq;
    }
  };

  class Endpoint final : public Transport {
   public:
    Endpoint(MemCluster& cluster, std::uint32_t rank, std::uint32_t p,
             const FaultPlan& faults)
        : cluster_(cluster), rank_(rank), p_(p), faults_(faults),
          recv_seq_(p, 0) {}

    std::uint32_t rank() const noexcept override { return rank_; }
    std::uint32_t size() const noexcept override { return p_; }
    double now() const override { return cluster_.now(); }

    bool send(std::uint32_t to, const Frame& f) override {
      if (to >= p_ || to == rank_) return false;
      Frame stamped = f;  // wire trace id, same stamping as SocketTransport
      {
        std::lock_guard lock(mutex_);
        ++metrics_.frames_sent;
        metrics_.bytes_sent += frame_payload_size(f) + 4;
        stamped.seq = ++send_seq_;
      }
      return cluster_.ranks_[to]->deposit(stamped);
    }

    bool recv(Frame& out, double timeout_s) override {
      std::unique_lock lock(mutex_);
      const auto start = std::chrono::steady_clock::now();
      for (;;) {
        release_due(cluster_.now());
        if (!ready_.empty()) {
          out = std::move(ready_.front());
          ready_.pop_front();
          ++metrics_.frames_received;
          metrics_.bytes_received += frame_payload_size(out) + 4;
          return true;
        }
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        double wait_s = timeout_s - elapsed;
        if (wait_s <= 0.0) return false;
        if (!delayed_.empty())
          wait_s = std::min(wait_s,
                            std::max(0.0, delayed_.top().due_s -
                                              cluster_.now()) +
                                1e-4);
        cv_.wait_for(lock, std::chrono::duration<double>(wait_s));
      }
    }

    std::size_t pending() const override {
      std::lock_guard lock(mutex_);
      return ready_.size() + delayed_.size();
    }

    /// A snapshot taken under the lock: senders' deposit() calls write
    /// this endpoint's receive-side counters from their own threads.
    const TransportMetrics& metrics() const noexcept override {
      std::lock_guard lock(mutex_);
      snapshot_ = metrics_;
      return snapshot_;
    }

   private:
    /// Called by the *sender's* thread: receiver-side fate, receiver's
    /// mailbox, receiver's metrics — all under the receiver's lock.
    bool deposit(const Frame& f) {
      std::lock_guard lock(mutex_);
      const double t = cluster_.now();
      const auto fate = faults_.on_frame(f.from, rank_, recv_seq_[f.from]++,
                                         t, f.type == FrameType::kToken);
      if (fate.dropped) {
        ++metrics_.frames_dropped;
        return true;  // "delivered" as far as the sender can tell
      }
      if (fate.extra_delay_s > 0.0) {
        ++metrics_.frames_delayed;
        delayed_.push({t + fate.extra_delay_s, delay_seq_++, f});
      } else {
        ready_.push_back(f);
      }
      cv_.notify_one();
      return true;
    }

    /// Move due delayed frames to the ready queue. Caller holds the lock.
    void release_due(double t) {
      while (!delayed_.empty() && delayed_.top().due_s <= t) {
        ready_.push_back(std::move(const_cast<Delayed&>(delayed_.top()).frame));
        delayed_.pop();
      }
    }

    MemCluster& cluster_;
    const std::uint32_t rank_;
    const std::uint32_t p_;
    const FrameFaults faults_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Frame> ready_;
    std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>>
        delayed_;
    std::vector<std::uint64_t> recv_seq_;  ///< arrivals per sender
    std::uint64_t delay_seq_ = 0;
    std::uint64_t send_seq_ = 0;  ///< wire trace ids (Frame::seq)
    TransportMetrics metrics_;
    mutable TransportMetrics snapshot_;  ///< owner thread's copy
  };

  std::vector<std::unique_ptr<Endpoint>> ranks_;
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace pmpl::runtime
