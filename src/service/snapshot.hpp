#pragma once
/// \file snapshot.hpp
/// Epoch/RCU-style pool of immutable roadmap snapshots.
///
/// The service layer decouples *query* traffic from *construction*: queries
/// run against a pinned, immutable snapshot of the roadmap while a
/// background rebuild densifies a copy and publishes the result as the next
/// epoch with a single atomic index swap. Readers never block on
/// construction, construction never blocks on readers, and a retired
/// snapshot is reclaimed exactly when its last reader drops.
///
/// Reader protocol (lock-free; two atomic ops to pin):
///   1. load the current slot index,
///   2. fetch_add the slot's pin count,
///   3. re-check the slot state — if it is not kLive (the slot was retired
///      or is being refilled between steps 1 and 2), unpin and retry.
/// A pinned slot cannot be reclaimed: the reclaimer only frees a slot it
/// has moved kRetired -> kReclaiming, and it re-waits for transient pins
/// (readers between steps 2 and 3, who will observe the non-live state and
/// unpin without ever dereferencing the snapshot) to drain first.
///
/// Each snapshot carries the epoch's read-only indexes, built once by the
/// publisher so that no reader pays for them: the kd-tree over every
/// vertex (the epoch's only k-NN index, handed over by the publisher;
/// readers query it with their own scratch) and the landmark table for
/// guided A*.
///
/// Publication claims an empty slot, fills it, marks it kLive, swings the
/// current index, then retires the previous slot. With `kSlots` slots, up
/// to kSlots - 1 old epochs can stay pinned by long-running readers while
/// new epochs keep publishing; `publish` only waits when every slot is
/// still pinned (pathological reader hoarding), never the other way round.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "planner/knn.hpp"
#include "planner/landmarks.hpp"
#include "planner/prm.hpp"
#include "planner/roadmap.hpp"
#include "runtime/cancel.hpp"
#include "runtime/metrics_registry.hpp"

namespace pmpl::service {

/// One immutable published roadmap plus its indexes. Never mutated after
/// publication; safe to read from any number of threads.
struct RoadmapSnapshot {
  planner::Roadmap roadmap;
  planner::LandmarkTable landmarks;  ///< over `roadmap`, for guided A*
  /// Every vertex of `roadmap` under its id. Readers see it `const`, so
  /// they query it with their own planner::KnnScratch.
  planner::KdTreeKnn knn;
  std::uint64_t epoch = 0;

  /// `index` must cover exactly the vertices of `g`, under their ids.
  RoadmapSnapshot(planner::Roadmap g, planner::KdTreeKnn index,
                  std::uint64_t ep);
  ~RoadmapSnapshot();
  RoadmapSnapshot(const RoadmapSnapshot&) = delete;
  RoadmapSnapshot& operator=(const RoadmapSnapshot&) = delete;

  /// Snapshots currently alive in the process (reclamation tests).
  static std::uint64_t live_count() noexcept;
};

class SnapshotPool;

/// RAII pin on one published snapshot. While a ref is held the snapshot
/// (and its epoch's roadmap) stays valid no matter how many newer epochs
/// publish; dropping the last ref of a retired epoch reclaims it.
class SnapshotRef {
 public:
  SnapshotRef() noexcept = default;
  ~SnapshotRef() { release(); }

  SnapshotRef(SnapshotRef&& o) noexcept
      : pool_(o.pool_), slot_(o.slot_), snap_(o.snap_) {
    o.pool_ = nullptr;
    o.snap_ = nullptr;
  }
  SnapshotRef& operator=(SnapshotRef&& o) noexcept {
    if (this != &o) {
      release();
      pool_ = o.pool_;
      slot_ = o.slot_;
      snap_ = o.snap_;
      o.pool_ = nullptr;
      o.snap_ = nullptr;
    }
    return *this;
  }
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  explicit operator bool() const noexcept { return snap_ != nullptr; }
  const RoadmapSnapshot* get() const noexcept { return snap_; }
  const RoadmapSnapshot* operator->() const noexcept { return snap_; }
  const RoadmapSnapshot& operator*() const noexcept { return *snap_; }

  /// Drop the pin early (idempotent).
  void release() noexcept;

 private:
  friend class SnapshotPool;
  SnapshotRef(SnapshotPool* pool, std::uint32_t slot,
              const RoadmapSnapshot* snap) noexcept
      : pool_(pool), slot_(slot), snap_(snap) {}

  SnapshotPool* pool_ = nullptr;
  std::uint32_t slot_ = 0;
  const RoadmapSnapshot* snap_ = nullptr;
};

/// Fixed-slot snapshot pool. One logical publisher at a time (publish is
/// internally serialized); any number of concurrent readers.
class SnapshotPool {
 public:
  static constexpr std::size_t kSlots = 8;

  SnapshotPool() = default;
  ~SnapshotPool();
  SnapshotPool(const SnapshotPool&) = delete;
  SnapshotPool& operator=(const SnapshotPool&) = delete;

  /// Publish `roadmap` as the next epoch with `knn` as its k-NN index;
  /// returns that epoch (1-based). `knn` must be a bulk build over exactly
  /// `roadmap`'s vertices (`KdTreeKnn(space, roadmap)`, with no later
  /// insert), whose CSpace outlives the snapshot; anything else throws
  /// std::invalid_argument before the pool changes. The publisher usually
  /// has that tree already (densify_and_publish connects with it), so the
  /// epoch costs one kd-tree build, not two. Readers pinned on older
  /// epochs are unaffected. Waits only when all kSlots slots are pinned by
  /// readers.
  std::uint64_t publish(planner::Roadmap roadmap, planner::KdTreeKnn knn);

  /// Pin the current snapshot. Empty ref iff nothing has been published.
  /// Lock-free: retries only while racing a concurrent publish/reclaim.
  SnapshotRef acquire() noexcept;

  /// Epoch of the current snapshot; 0 before the first publish.
  std::uint64_t current_epoch() const noexcept {
    return current_epoch_.load(std::memory_order_acquire);
  }

  std::uint64_t published_total() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_total() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  /// Slots holding a snapshot (live + retired-but-pinned).
  std::uint64_t live_slots() const noexcept;
  /// Readers currently pinning the current slot.
  std::uint64_t current_readers() const noexcept;

  /// Gauges `<prefix>epoch`, `<prefix>snapshots_live`,
  /// `<prefix>snapshot_readers` and counters `<prefix>snapshots_published`,
  /// `<prefix>snapshots_reclaimed` (counters are set as deltas since the
  /// last call on this pool — call from one collection thread).
  void publish_metrics(runtime::MetricsRegistry& reg,
                       const std::string& prefix = "service/");

 private:
  friend class SnapshotRef;

  enum : std::uint32_t { kEmpty = 0, kFilling = 1, kLive = 2, kRetired = 3,
                         kReclaiming = 4 };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<const RoadmapSnapshot*> snap{nullptr};
  };

  void unpin(std::uint32_t slot) noexcept;
  void try_reclaim(std::uint32_t slot) noexcept;
  std::uint32_t claim_empty_slot() noexcept;  ///< kNoSlot when none free

  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint32_t> current_{kNoSlot};
  std::atomic<std::uint64_t> current_epoch_{0};
  std::atomic<std::uint64_t> next_epoch_{1};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::mutex publish_mutex_;  ///< serializes publishers, never readers
  std::uint64_t metrics_published_base_ = 0;
  std::uint64_t metrics_reclaimed_base_ = 0;
};

/// Incremental densification: copy the pool's current roadmap (or start
/// empty), add `attempts` worth of new PRM samples, connect them into the
/// whole graph with planner::connect_to_nearest, and publish the result as
/// the next epoch. Returns the published epoch.
/// Deterministic given (current epoch contents, seed). A fired `cancel`
/// publishes whatever was densified so far (bounded overrun: one window).
std::uint64_t densify_and_publish(SnapshotPool& pool,
                                  const env::Environment& e,
                                  const planner::PrmParams& params,
                                  std::size_t attempts, std::uint64_t seed,
                                  planner::PlannerStats* stats = nullptr,
                                  const runtime::CancelToken* cancel =
                                      nullptr);

}  // namespace pmpl::service
