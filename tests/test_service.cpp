// Service-layer guarantees:
//  - SnapshotPool is a correct epoch/RCU pool: readers pinned on epoch N
//    stay valid while N+1..N+3 publish, retired snapshots are reclaimed
//    exactly when their last reader drops (verified through an
//    allocation-counting harness plus RoadmapSnapshot::live_count), and the
//    acquire/publish race is safe under real thread churn;
//  - the QueryEngine is deterministic: the same snapshot + request sequence
//    produce bit-identical paths for any worker count, and engine answers
//    are bit-identical to the sequential query_roadmap baseline;
//  - deadlines cancel within one pipeline granule and mark the result
//    degraded instead of wedging a worker;
//  - the read-only overlay query path never mutates the roadmap;
//  - engine metrics publish under deterministic keys.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "env/builders.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

// --- allocation counting hook ---------------------------------------------
// Local to this binary: pairs every successful global allocation with its
// deallocation so tests can assert that retiring an epoch actually frees
// memory (not merely that the RoadmapSnapshot destructor ran).

namespace {
std::atomic<std::int64_t> g_outstanding{0};
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_outstanding.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_outstanding.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

namespace pmpl {
namespace {

std::int64_t outstanding_allocations() {
  return g_outstanding.load(std::memory_order_relaxed);
}

planner::Roadmap small_maze_roadmap(std::size_t attempts = 600,
                                    std::uint64_t seed = 7) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  planner::Prm prm(*e, params);
  prm.build(attempts, seed);
  return prm.roadmap();
}

// --- snapshot pool lifecycle ----------------------------------------------

/// Publish `g` with a k-NN index bulk-built over it, as a publisher does
/// that has no tree of its own at hand.
std::uint64_t publish_indexed(service::SnapshotPool& pool, planner::Roadmap g,
                              const cspace::CSpace& space) {
  planner::KdTreeKnn knn(space, g);
  return pool.publish(std::move(g), std::move(knn));
}

TEST(SnapshotPool, EmptyPoolYieldsNoSnapshot) {
  service::SnapshotPool pool;
  EXPECT_FALSE(pool.acquire());
  EXPECT_EQ(pool.current_epoch(), 0u);
  EXPECT_EQ(pool.live_slots(), 0u);
}

TEST(SnapshotPool, PublishThenAcquirePinsCurrentEpoch) {
  const auto e = env::maze_2d();
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  EXPECT_EQ(publish_indexed(pool, planner::Roadmap(base), e->space()), 1u);
  auto ref = pool.acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->epoch, 1u);
  EXPECT_EQ(ref->roadmap.num_vertices(), base.num_vertices());
  EXPECT_EQ(ref->roadmap.num_edges(), base.num_edges());
  EXPECT_EQ(pool.current_readers(), 1u);
  ref.release();
  EXPECT_EQ(pool.current_readers(), 0u);
}

TEST(SnapshotPool, PinnedReaderSurvivesThreeNewerEpochs) {
  const auto e = env::maze_2d();
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  publish_indexed(pool, planner::Roadmap(base), e->space());
  auto pinned = pool.acquire();
  ASSERT_TRUE(pinned);
  ASSERT_EQ(pinned->epoch, 1u);

  // Publish epochs 2..4 while epoch 1 stays pinned. The pinned snapshot
  // must remain byte-for-byte readable throughout.
  for (std::uint64_t ep = 2; ep <= 4; ++ep) {
    EXPECT_EQ(publish_indexed(pool, planner::Roadmap(base), e->space()), ep);
    EXPECT_EQ(pool.current_epoch(), ep);
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_EQ(pinned->roadmap.num_vertices(), base.num_vertices());
    EXPECT_EQ(pinned->roadmap.num_edges(), base.num_edges());
  }

  // Unpinned intermediate epochs 2 and 3 were retired and reclaimed as
  // epoch 3 and 4 published; alive now: pinned epoch 1 + current epoch 4.
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 2u);
  EXPECT_EQ(pool.reclaimed_total(), 2u);
  EXPECT_EQ(pool.live_slots(), 2u);

  // Dropping the last pin on the retired epoch 1 reclaims it immediately.
  pinned.release();
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 1u);
  EXPECT_EQ(pool.reclaimed_total(), 3u);
  EXPECT_EQ(pool.live_slots(), 1u);
}

TEST(SnapshotPool, RetiredSnapshotMemoryIsActuallyFreed) {
  const auto e = env::maze_2d();
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  publish_indexed(pool, planner::Roadmap(base), e->space());

  const std::int64_t before = outstanding_allocations();
  {
    auto pinned = pool.acquire();
    ASSERT_TRUE(pinned);
    // Retires epoch 1.
    publish_indexed(pool, planner::Roadmap(base), e->space());
    EXPECT_GT(outstanding_allocations(), before);
  }  // last reader drops -> epoch 1 reclaimed here

  // Epoch 2's snapshot is the only growth left; freeing it must return the
  // outstanding-allocation count to the baseline.
  publish_indexed(pool, planner::Roadmap(), e->space());  // retires, reclaims 2
  auto cur = pool.acquire();
  ASSERT_TRUE(cur);
  EXPECT_EQ(cur->epoch, 3u);
  EXPECT_EQ(cur->roadmap.num_vertices(), 0u);
  cur.release();
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 1u);
  // Allow the empty epoch-3 snapshot's own handful of allocations.
  EXPECT_LT(outstanding_allocations() - before, 64);
}

TEST(SnapshotPool, SevenOldEpochsCanStayPinnedAtOnce) {
  // kSlots = 8: seven retired epochs pinned by laggard readers plus the
  // current epoch occupy the whole pool; every pinned epoch stays intact.
  const auto e = env::maze_2d();
  service::SnapshotPool pool;
  std::vector<service::SnapshotRef> pins;
  for (std::uint64_t ep = 1; ep <= service::SnapshotPool::kSlots - 1; ++ep) {
    planner::Roadmap g;
    Xoshiro256ss rng(ep);
    for (std::uint64_t v = 0; v < ep; ++v)
      g.add_vertex({e->space().sample(rng), 0});
    EXPECT_EQ(publish_indexed(pool, std::move(g), e->space()), ep);
    pins.push_back(pool.acquire());
    ASSERT_TRUE(pins.back());
  }
  EXPECT_EQ(publish_indexed(pool, planner::Roadmap(), e->space()), 8u);
  EXPECT_EQ(pool.live_slots(), service::SnapshotPool::kSlots);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i]->epoch, i + 1);
    EXPECT_EQ(pins[i]->roadmap.num_vertices(), i + 1);
  }
  pins.clear();
  EXPECT_EQ(pool.live_slots(), 1u);  // only the current epoch remains
}

TEST(SnapshotPool, DestructorReclaimsEverything) {
  const auto e = env::maze_2d();
  const std::uint64_t live_before = service::RoadmapSnapshot::live_count();
  {
    service::SnapshotPool pool;
    publish_indexed(pool, small_maze_roadmap(), e->space());
    publish_indexed(pool, small_maze_roadmap(), e->space());
  }
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), live_before);
}

TEST(SnapshotPool, AcquireReleaseRaceWithPublishChurn) {
  // The TSan target for the reader protocol: hammer acquire/read/release
  // from several threads while a publisher keeps swapping epochs. Readers
  // must never observe a torn snapshot (epoch and vertex count are
  // published together and checked for consistency).
  const auto e = env::maze_2d();
  const auto base = small_maze_roadmap(200, 3);
  service::SnapshotPool pool;
  publish_indexed(pool, planner::Roadmap(base), e->space());

  constexpr int kReaders = 4;
  constexpr int kPublishes = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto ref = pool.acquire();
        if (!ref) continue;
        // Every published roadmap has exactly base vertices + epoch extras.
        const std::uint64_t extra =
            ref->roadmap.num_vertices() - base.num_vertices();
        if (extra != (ref->epoch - 1) % 5) torn.store(true);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Xoshiro256ss rng(11);
  for (int p = 0; p < kPublishes; ++p) {
    planner::Roadmap g(base);
    for (std::uint64_t v = 0; v < static_cast<std::uint64_t>((p + 1) % 5);
         ++v)
      g.add_vertex({e->space().sample(rng), 0});
    publish_indexed(pool, std::move(g), e->space());
  }
  // Let readers overlap the final epoch before stopping.
  while (reads.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GE(reads.load(), 100u);
  EXPECT_EQ(pool.published_total(), static_cast<std::uint64_t>(kPublishes) + 1);
  // With no readers left, everything but the current epoch is reclaimed.
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(pool.reclaimed_total(), static_cast<std::uint64_t>(kPublishes));
}

TEST(SnapshotPool, PublishRejectsAnIndexThatDoesNotCoverTheRoadmap) {
  const auto e = env::maze_2d();
  const planner::Roadmap base = small_maze_roadmap();
  planner::Roadmap bigger = base;
  bigger.add_vertex(base.vertex(0));
  service::SnapshotPool pool;
  // An index over fewer vertices than the roadmap holds.
  EXPECT_THROW(pool.publish(planner::Roadmap(bigger),
                            planner::KdTreeKnn(e->space(), base)),
               std::invalid_argument);
  // The right count, but the last vertex sits in the insertion buffer.
  planner::KdTreeKnn grown(e->space(), base);
  grown.insert(static_cast<graph::VertexId>(base.num_vertices()),
               base.vertex(0).cfg);
  ASSERT_EQ(grown.size(), bigger.num_vertices());
  EXPECT_THROW(pool.publish(planner::Roadmap(bigger), std::move(grown)),
               std::invalid_argument);
  // Nothing was published, and a matching index still publishes epoch 1.
  EXPECT_EQ(pool.current_epoch(), 0u);
  EXPECT_EQ(pool.live_slots(), 0u);
  EXPECT_EQ(publish_indexed(pool, bigger, e->space()), 1u);
}

TEST(SnapshotPool, DensifyAndPublishIsDeterministic) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;

  service::SnapshotPool a, b;
  publish_indexed(a, small_maze_roadmap(), e->space());
  publish_indexed(b, small_maze_roadmap(), e->space());
  planner::PlannerStats sa, sb;
  EXPECT_EQ(service::densify_and_publish(a, *e, params, 300, 21, &sa), 2u);
  EXPECT_EQ(service::densify_and_publish(b, *e, params, 300, 21, &sb), 2u);

  auto ra = a.acquire();
  auto rb = b.acquire();
  ASSERT_TRUE(ra);
  ASSERT_TRUE(rb);
  EXPECT_GT(ra->roadmap.num_vertices(), small_maze_roadmap().num_vertices());
  EXPECT_EQ(ra->roadmap.num_vertices(), rb->roadmap.num_vertices());
  EXPECT_EQ(ra->roadmap.num_edges(), rb->roadmap.num_edges());
  EXPECT_EQ(sa.cd.queries, sb.cd.queries);
}

// --- query engine ----------------------------------------------------------

struct ServiceFixture : ::testing::Test {
  void SetUp() override {
    e = env::maze_2d();
    params.k_neighbors = 8;
    params.resolution = 0.5;
    planner::Prm prm(*e, params);
    prm.build(2500, 17);
    roadmap = prm.roadmap();
    publish_indexed(pool, planner::Roadmap(roadmap), e->space());
  }

  std::vector<service::QueryRequest> make_requests(std::size_t n,
                                                   std::uint64_t seed) const {
    Xoshiro256ss rng(seed);
    std::vector<service::QueryRequest> reqs;
    while (reqs.size() < n) {
      service::QueryRequest q;
      q.start = e->space().sample(rng);
      q.goal = e->space().sample(rng);
      if (!e->validity().valid(q.start) || !e->validity().valid(q.goal))
        continue;
      q.k = params.k_neighbors;
      reqs.push_back(std::move(q));
    }
    return reqs;
  }

  std::unique_ptr<env::Environment> e;
  planner::PrmParams params;
  planner::Roadmap roadmap;
  service::SnapshotPool pool;
};

bool same_path(const std::vector<cspace::Config>& a,
               const std::vector<cspace::Config>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t d = 0; d < a[i].size(); ++d)
      if (a[i][d] != b[i][d]) return false;  // bit-identical, not approx
  }
  return true;
}

TEST_F(ServiceFixture, EngineAnswersMatchSequentialQueryRoadmapBitwise) {
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(12, 99);
  const auto results = engine.run_batch(reqs);
  ASSERT_EQ(results.size(), reqs.size());

  std::size_t solved = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto baseline =
        planner::query_roadmap(*e, roadmap, reqs[i].start, reqs[i].goal,
                               reqs[i].k, params.resolution);
    if (results[i].status == service::QueryStatus::kSolved) {
      ++solved;
      ASSERT_TRUE(baseline.has_value()) << "query " << i;
      EXPECT_TRUE(same_path(results[i].path, *baseline)) << "query " << i;
      EXPECT_FALSE(results[i].degraded);
      EXPECT_EQ(results[i].epoch, 1u);
      EXPECT_GT(results[i].length, 0.0);
    } else {
      EXPECT_EQ(results[i].status, service::QueryStatus::kUnreachable);
      EXPECT_FALSE(baseline.has_value()) << "query " << i;
    }
  }
  EXPECT_GE(solved, reqs.size() / 2) << "maze roadmap too sparse for test";
}

TEST_F(ServiceFixture, BatchResultsAreBitIdenticalAcrossWorkerCounts) {
  const auto reqs = make_requests(10, 123);
  std::vector<std::vector<service::QueryResult>> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    service::QueryEngineConfig cfg;
    cfg.workers = workers;
    cfg.resolution = params.resolution;
    runtime::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    service::QueryEngine engine(*e, pool, cfg);
    runs.push_back(engine.run_batch(reqs));
    // Re-running the same batch on the same engine must also be identical.
    const auto again = engine.run_batch(reqs);
    ASSERT_EQ(again.size(), runs.back().size());
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].status, runs.back()[i].status);
      EXPECT_TRUE(same_path(again[i].path, runs.back()[i].path));
    }
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].status, runs[1][i].status) << "query " << i;
    EXPECT_EQ(runs[0][i].length, runs[1][i].length) << "query " << i;
    EXPECT_TRUE(same_path(runs[0][i].path, runs[1][i].path)) << "query " << i;
  }
}

TEST_F(ServiceFixture, ExpiredDeadlineMissesWithinOneGranuleAndIsDegraded) {
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  // A mixed batch: one already-expired deadline among healthy queries.
  // The expired query must come back kDeadlineMiss + degraded without
  // poisoning its neighbors, and fast (it is cancelled at a stage
  // boundary, never run to completion).
  auto reqs = make_requests(4, 321);
  reqs[1].deadline = runtime::Deadline::after_s(-1.0);
  const auto results = engine.run_batch(reqs);
  ASSERT_EQ(results.size(), reqs.size());

  EXPECT_EQ(results[1].status, service::QueryStatus::kDeadlineMiss);
  EXPECT_TRUE(results[1].degraded);
  EXPECT_TRUE(results[1].path.empty());
  EXPECT_LT(results[1].latency_s, 1.0);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
    EXPECT_NE(results[i].status, service::QueryStatus::kDeadlineMiss)
        << "query " << i;

  EXPECT_EQ(metrics.counter("service/deadline_missed").value(), 1u);
  EXPECT_EQ(metrics.counter("service/queries_total").value(), reqs.size());
}

TEST_F(ServiceFixture, InvalidEndpointsAndEmptyPoolAreReported) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  auto reqs = make_requests(1, 5);
  service::QueryRequest bad = reqs[0];
  Xoshiro256ss rng(6);
  do {  // draw a start inside an obstacle
    bad.start = e->space().sample(rng);
  } while (e->validity().valid(bad.start));
  const auto r = engine.run_batch(std::vector<service::QueryRequest>{bad});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].status, service::QueryStatus::kInvalidEndpoint);

  service::SnapshotPool empty;
  service::QueryEngine cold(*e, empty, cfg);
  const auto r2 = cold.run_batch(reqs);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].status, service::QueryStatus::kNoSnapshot);
}

TEST_F(ServiceFixture, QueriesNeverMutateTheSnapshotRoadmap) {
  const auto vertices = roadmap.num_vertices();
  const auto edges = roadmap.num_edges();

  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  engine.run_batch(make_requests(6, 777));

  auto ref = pool.acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->roadmap.num_vertices(), vertices);
  EXPECT_EQ(ref->roadmap.num_edges(), edges);

  // Same property for the sequential path on a local const roadmap.
  const auto reqs = make_requests(2, 778);
  planner::query_roadmap(*e, roadmap, reqs[0].start, reqs[0].goal, 8,
                         params.resolution);
  EXPECT_EQ(roadmap.num_vertices(), vertices);
  EXPECT_EQ(roadmap.num_edges(), edges);
}

TEST_F(ServiceFixture, SubmitDrainPreservesAdmissionOrderAndIds) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(5, 42);
  std::vector<std::uint64_t> ids;
  ids.reserve(reqs.size());
  for (const auto& q : reqs) ids.push_back(engine.submit(q));
  const auto drained = engine.drain();
  ASSERT_EQ(drained.size(), reqs.size());
  const auto batch = engine.run_batch(reqs);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].first, ids[i]);
    EXPECT_EQ(drained[i].second.status, batch[i].status);
    EXPECT_TRUE(same_path(drained[i].second.path, batch[i].path));
  }
  EXPECT_TRUE(engine.drain().empty());
}

TEST_F(ServiceFixture, EngineServesConsistentlyAcrossEpochSwap) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  // Each epoch carries one k-NN index, over every one of its vertices and
  // with no unindexed tail.
  const auto check_index = [&](std::uint64_t epoch) {
    const auto snap = pool.acquire();
    ASSERT_TRUE(snap);
    EXPECT_EQ(snap->epoch, epoch);
    EXPECT_EQ(snap->knn.size(), snap->roadmap.num_vertices());
    EXPECT_EQ(snap->knn.indexed_size(), snap->roadmap.num_vertices());
  };
  const auto reqs = make_requests(4, 1234);
  const auto before = engine.run_batch(reqs);
  check_index(1);
  service::densify_and_publish(pool, *e, params, 400, 55);
  const auto after = engine.run_batch(reqs);
  check_index(2);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(before[i].epoch, 1u);
    if (after[i].status == service::QueryStatus::kSolved) {
      EXPECT_EQ(after[i].epoch, 2u);
    }
    // Densification only adds vertices/edges: reachability never regresses.
    if (before[i].status == service::QueryStatus::kSolved) {
      EXPECT_EQ(after[i].status, service::QueryStatus::kSolved) << i;
    }
  }
}

TEST_F(ServiceFixture, HugeKRequestDoesNotAbortTheWave) {
  // QueryRequest::k is caller-supplied. A k far beyond the roadmap's size
  // attaches that query to every vertex; it must neither throw out of the
  // wave nor change any other query's answer.
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(6, 4242);
  const auto plain = engine.run_batch(reqs);
  auto mixed = reqs;
  constexpr std::size_t kHuge = 2;
  mixed[kHuge].k = std::size_t{1} << 40;
  std::vector<service::QueryResult> got;
  ASSERT_NO_THROW(got = engine.run_batch(mixed));
  ASSERT_EQ(got.size(), reqs.size());
  std::size_t solved = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    solved += plain[i].status == service::QueryStatus::kSolved;
    if (i == kHuge) continue;
    EXPECT_EQ(got[i].status, plain[i].status) << i;
    EXPECT_TRUE(same_path(got[i].path, plain[i].path)) << i;
  }
  EXPECT_GT(solved, 0u);
  // More attachment edges never lose reachability.
  if (plain[kHuge].status == service::QueryStatus::kSolved) {
    EXPECT_EQ(got[kHuge].status, service::QueryStatus::kSolved);
  }
  if (got[kHuge].status == service::QueryStatus::kSolved) {
    EXPECT_TRUE(planner::path_valid(*e, got[kHuge].path, params.resolution));
  }
}

TEST_F(ServiceFixture, AnswersDoNotDependOnWaveComposition) {
  // Every query runs its k-NN, attachments and A* in its own task with its
  // own k, so the other requests of a wave cannot change its answer; not
  // even one whose k reaches every roadmap vertex.
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  auto reqs = make_requests(16, 2718);
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].k = 2 + i % 8;
  std::vector<service::QueryResult> alone;
  for (const auto& q : reqs)
    alone.push_back(std::move(engine.run_batch({&q, 1}).front()));

  constexpr std::size_t kHugeAt = 7;
  auto mixed = reqs;
  service::QueryRequest huge = reqs[3];
  huge.k = std::size_t{1} << 40;
  mixed.insert(mixed.begin() + kHugeAt, huge);
  const auto got = engine.run_batch(mixed);
  ASSERT_EQ(got.size(), reqs.size() + 1);

  std::size_t solved = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const service::QueryResult& r = got[i < kHugeAt ? i : i + 1];
    EXPECT_EQ(r.status, alone[i].status) << i;
    EXPECT_EQ(r.length, alone[i].length) << i;
    EXPECT_TRUE(same_path(r.path, alone[i].path)) << i;
    solved += alone[i].status == service::QueryStatus::kSolved;
  }
  EXPECT_GT(solved, reqs.size() / 2);
}

TEST_F(ServiceFixture, MetricsPublishUnderDeterministicKeys) {
  runtime::MetricsRegistry metrics;
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  engine.run_batch(make_requests(3, 9));
  engine.publish_pool_metrics();

  const std::string json = metrics.to_json();
  for (const char* key :
       {"service/queries_total", "service/queries_solved",
        "service/queries_unreachable", "service/queries_invalid",
        "service/deadline_missed", "service/latency_us", "service/epoch", "service/snapshots_live",
        "service/snapshot_readers", "service/snapshots_published",
        "service/snapshots_reclaimed"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing metrics key: " << key;
  }
  EXPECT_EQ(metrics.counter("service/queries_total").value(), 3u);
  EXPECT_EQ(metrics.histogram("service/latency_us").count(), 3u);

  const auto lat = engine.latency();
  EXPECT_EQ(lat.count, 3u);
  EXPECT_GT(lat.p50_us, 0.0);
  EXPECT_LE(lat.p50_us, lat.p99_us);
  EXPECT_LE(lat.p99_us, lat.p999_us);
}

TEST(ServiceLatency, QuantilesReportLog2BucketUpperBounds) {
  runtime::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(3.0);   // bucket [2,4)
  h.observe(1000.0);                             // bucket [512,1024)
  const auto q = service::summarize_latency(h);
  EXPECT_EQ(q.count, 100u);
  EXPECT_DOUBLE_EQ(q.p50_us, 4.0);
  EXPECT_DOUBLE_EQ(q.p99_us, 4.0);
  EXPECT_DOUBLE_EQ(q.p999_us, 1024.0);

  runtime::Histogram empty;
  const auto z = service::summarize_latency(empty);
  EXPECT_EQ(z.count, 0u);
  EXPECT_DOUBLE_EQ(z.p50_us, 0.0);
}

TEST_F(ServiceFixture, ConcurrentBatchesAgainstChurningPoolStayValid) {
  // End-to-end RCU pressure: a background thread keeps densifying and
  // publishing new epochs while the engine serves waves. Every solved
  // answer must be a valid path whose epoch tag is one the pool actually
  // published.
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seed = 1000;
    while (!stop.load(std::memory_order_acquire))
      service::densify_and_publish(pool, *e, params, 50, seed++);
  });

  const auto reqs = make_requests(4, 2024);
  std::size_t solved = 0;
  for (int wave = 0; wave < 6; ++wave) {
    for (const auto& r : engine.run_batch(reqs)) {
      if (r.status != service::QueryStatus::kSolved) continue;
      ++solved;
      EXPECT_GE(r.epoch, 1u);
      EXPECT_LE(r.epoch, pool.published_total());
      EXPECT_TRUE(planner::path_valid(*e, r.path, params.resolution));
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_GT(solved, 0u);
}

TEST_F(ServiceFixture, StageHistogramsObserveEveryWave) {
  runtime::MetricsRegistry metrics;
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  const char* stages[] = {"service/stage_us/admit", "service/stage_us/knn",
                          "service/stage_us/edges", "service/stage_us/astar"};
  // Pre-registered: present before any traffic.
  for (const char* name : stages)
    EXPECT_NE(metrics.to_json().find(std::string("\"") + name + "\""),
              std::string::npos)
        << "missing metrics key: " << name;

  const auto reqs = make_requests(8, 31);
  for (int wave = 0; wave < 3; ++wave) engine.run_batch(reqs);
  for (const char* name : stages)
    EXPECT_EQ(metrics.histogram(name).count(), 3u) << name;
  EXPECT_GT(metrics.histogram("service/stage_us/astar").sum(), 0.0);
}

TEST_F(ServiceFixture, TwoEnginesShareOnePoolUnderChurn) {
  // Two engines (each with its own k-NN and search scratch and scheduler)
  // read one pool while a publisher keeps swapping epochs; every snapshot
  // carries the k-NN index and landmark table the publisher built, which
  // both engines query at once. Answers of the two
  // engines against the same epoch must be bit-identical, and every solved
  // path must be valid. TSan covers the shared snapshot reads.
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics_a, metrics_b;
  cfg.metrics = &metrics_a;
  service::QueryEngine a(*e, pool, cfg);
  cfg.metrics = &metrics_b;
  service::QueryEngine b(*e, pool, cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seed = 3000;
    while (!stop.load(std::memory_order_acquire))
      service::densify_and_publish(pool, *e, params, 40, seed++);
  });

  const auto reqs = make_requests(6, 77);
  std::size_t solved = 0;
  for (int wave = 0; wave < 6; ++wave) {
    std::vector<service::QueryResult> ra;
    std::thread ta([&] { ra = a.run_batch(reqs); });
    std::vector<service::QueryResult> rb = b.run_batch(reqs);
    ta.join();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      for (const service::QueryResult* r : {&ra[i], &rb[i]}) {
        if (r->status != service::QueryStatus::kSolved) continue;
        ++solved;
        EXPECT_LE(r->epoch, pool.published_total());
        EXPECT_TRUE(planner::path_valid(*e, r->path, params.resolution));
      }
      if (ra[i].epoch != rb[i].epoch) continue;
      EXPECT_EQ(ra[i].status, rb[i].status) << "wave " << wave << " q " << i;
      EXPECT_TRUE(same_path(ra[i].path, rb[i].path))
          << "wave " << wave << " q " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_GT(solved, 0u);
  // Same-epoch pairs are likely but not guaranteed under churn; after the
  // publisher stops, both engines answer the final epoch.
  const auto fa = a.run_batch(reqs);
  const auto fb = b.run_batch(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(fa[i].epoch, fb[i].epoch);
    EXPECT_EQ(fa[i].status, fb[i].status);
    EXPECT_TRUE(same_path(fa[i].path, fb[i].path)) << "q " << i;
  }
}

}  // namespace
}  // namespace pmpl
