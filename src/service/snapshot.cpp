#include "service/snapshot.hpp"

#include <stdexcept>
#include <thread>

namespace pmpl::service {

namespace {
std::atomic<std::uint64_t> g_live_snapshots{0};
}  // namespace

RoadmapSnapshot::RoadmapSnapshot(planner::Roadmap g,
                                 planner::KdTreeKnn index, std::uint64_t ep)
    : roadmap(std::move(g)), landmarks(roadmap), knn(std::move(index)),
      epoch(ep) {
  roadmap.shrink_to_fit();  // immutable from here on: drop growth slack
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

RoadmapSnapshot::~RoadmapSnapshot() {
  g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t RoadmapSnapshot::live_count() noexcept {
  return g_live_snapshots.load(std::memory_order_relaxed);
}

void SnapshotRef::release() noexcept {
  if (pool_ != nullptr) {
    pool_->unpin(slot_);
    pool_ = nullptr;
    snap_ = nullptr;
  }
}

SnapshotPool::~SnapshotPool() {
  // Destruction contract: no outstanding refs, no concurrent publishers.
  for (Slot& s : slots_) delete s.snap.exchange(nullptr);
}

SnapshotRef SnapshotPool::acquire() noexcept {
  for (;;) {
    const std::uint32_t ix = current_.load(std::memory_order_acquire);
    if (ix == kNoSlot) return {};
    Slot& s = slots_[ix];
    s.pins.fetch_add(1, std::memory_order_seq_cst);
    if (s.state.load(std::memory_order_seq_cst) == kLive) {
      // The pin landed while the slot was live, so the reclaimer (which
      // flips the state away from kLive before re-checking pins) is now
      // excluded: the snapshot pointer is stable until we unpin.
      return SnapshotRef(this, ix, s.snap.load(std::memory_order_acquire));
    }
    // Lost the race with a publish/reclaim of this slot: back out without
    // ever dereferencing and retry on the fresh current index.
    unpin(ix);
  }
}

void SnapshotPool::unpin(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.pins.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Possibly the last reader of a retired epoch: reclaim it now rather
    // than waiting for the next publish to sweep.
    if (s.state.load(std::memory_order_seq_cst) == kRetired)
      try_reclaim(slot);
  }
}

void SnapshotPool::try_reclaim(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.pins.load(std::memory_order_seq_cst) != 0) return;
  std::uint32_t expected = kRetired;
  if (!s.state.compare_exchange_strong(expected, kReclaiming,
                                       std::memory_order_seq_cst))
    return;  // someone else is reclaiming, or the slot is not retired
  // Readers that pinned between our pins check and the CAS observe a
  // non-kLive state and unpin without dereferencing; wait out those
  // transient pins (bounded: no reader holds a pin on a non-live slot).
  while (s.pins.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  delete s.snap.exchange(nullptr, std::memory_order_acq_rel);
  reclaimed_.fetch_add(1, std::memory_order_relaxed);
  s.state.store(kEmpty, std::memory_order_seq_cst);
}

std::uint32_t SnapshotPool::claim_empty_slot() noexcept {
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    std::uint32_t expected = kEmpty;
    if (slots_[i].state.compare_exchange_strong(expected, kFilling,
                                                std::memory_order_seq_cst))
      return i;
  }
  return kNoSlot;
}

std::uint64_t SnapshotPool::publish(planner::Roadmap roadmap,
                                    planner::KdTreeKnn knn) {
  if (knn.size() != roadmap.num_vertices() ||
      knn.indexed_size() != roadmap.num_vertices())
    throw std::invalid_argument(
        "SnapshotPool::publish: the k-NN index must be a bulk build over "
        "exactly the roadmap's vertices");
  std::lock_guard lock(publish_mutex_);
  const std::uint64_t epoch =
      next_epoch_.fetch_add(1, std::memory_order_relaxed);
  auto* snap = new RoadmapSnapshot(std::move(roadmap), std::move(knn), epoch);

  std::uint32_t ix = claim_empty_slot();
  while (ix == kNoSlot) {
    // Every slot holds a pinned epoch. Sweep retired slots whose readers
    // have since dropped, then yield to them; publication waits, queries
    // never do.
    for (std::uint32_t i = 0; i < kSlots; ++i) try_reclaim(i);
    if ((ix = claim_empty_slot()) != kNoSlot) break;
    std::this_thread::yield();
  }

  Slot& s = slots_[ix];
  s.snap.store(snap, std::memory_order_release);
  s.state.store(kLive, std::memory_order_seq_cst);

  const std::uint32_t prev = current_.exchange(ix, std::memory_order_seq_cst);
  current_epoch_.store(epoch, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);

  if (prev != kNoSlot) {
    slots_[prev].state.store(kRetired, std::memory_order_seq_cst);
    try_reclaim(prev);
  }
  return epoch;
}

std::uint64_t SnapshotPool::live_slots() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) {
    const std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (st == kLive || st == kRetired || st == kFilling) ++n;
  }
  return n;
}

std::uint64_t SnapshotPool::current_readers() const noexcept {
  const std::uint32_t ix = current_.load(std::memory_order_acquire);
  if (ix == kNoSlot) return 0;
  return slots_[ix].pins.load(std::memory_order_acquire);
}

void SnapshotPool::publish_metrics(runtime::MetricsRegistry& reg,
                                   const std::string& prefix) {
  reg.set(prefix + "epoch", static_cast<double>(current_epoch()));
  reg.set(prefix + "snapshots_live", static_cast<double>(live_slots()));
  reg.set(prefix + "snapshot_readers",
          static_cast<double>(current_readers()));
  const std::uint64_t pub = published_total();
  const std::uint64_t rec = reclaimed_total();
  reg.add(prefix + "snapshots_published", pub - metrics_published_base_);
  reg.add(prefix + "snapshots_reclaimed", rec - metrics_reclaimed_base_);
  metrics_published_base_ = pub;
  metrics_reclaimed_base_ = rec;
}

std::uint64_t densify_and_publish(SnapshotPool& pool,
                                  const env::Environment& e,
                                  const planner::PrmParams& params,
                                  std::size_t attempts, std::uint64_t seed,
                                  planner::PlannerStats* stats,
                                  const runtime::CancelToken* cancel) {
  planner::PlannerStats local;
  planner::PlannerStats& st = stats != nullptr ? *stats : local;

  // Copy-on-rebuild: readers keep the old epoch; we densify a private copy.
  planner::Roadmap next;
  if (SnapshotRef cur = pool.acquire()) next = cur->roadmap;

  Xoshiro256ss rng(seed);
  const auto samples = planner::sample_region(
      e, e.space().position_bounds(), attempts, rng, st, cancel);
  std::vector<graph::VertexId> fresh;
  fresh.reserve(samples.size());
  next.reserve_vertices(next.num_vertices() + samples.size());
  for (const auto& c : samples) fresh.push_back(next.add_vertex({c, 0}));

  // One tree over the whole next epoch: it connects each fresh vertex into
  // the whole graph (old + new, unlike connect_within, which searches
  // inside one id set), and connecting adds only edges, so it then serves
  // as the published epoch's k-NN index.
  planner::KdTreeKnn finder(e.space(), next);
  if (!fresh.empty())
    planner::connect_to_nearest(e, next, finder, fresh, params, st, nullptr,
                                cancel);
  return pool.publish(std::move(next), std::move(finder));
}

}  // namespace pmpl::service
