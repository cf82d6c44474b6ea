// Tests for runtime/: DES core, topology, communication model, Chase–Lev
// deque, work-stealing scheduler and parallel_for, work-unit cost model.
// The ChaseLev/Scheduler stress tests double as the ThreadSanitizer
// targets (PMPL_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/chase_lev_deque.hpp"
#include "runtime/des.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/topology.hpp"
#include "runtime/work_units.hpp"

namespace pmpl::runtime {
namespace {

// --- DES ----------------------------------------------------------------

/// Test event kinds: record the argument, or (from inside the handler)
/// schedule more events.
enum class TestEv : std::uint32_t { kRecord, kSpawn };
using Calendar = EventCalendar<TestEv>;

TEST(Des, ExecutesInTimeOrder) {
  Calendar sim;
  std::vector<std::uint32_t> order;
  sim.schedule_at(3.0, TestEv::kRecord, 3);
  sim.schedule_at(1.0, TestEv::kRecord, 1);
  sim.schedule_at(2.0, TestEv::kRecord, 2);
  sim.run([&](TestEv, std::uint32_t arg) { order.push_back(arg); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Des, TiesBreakByInsertionOrder) {
  Calendar sim;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 10; ++i)
    sim.schedule_at(1.0, TestEv::kRecord, i);
  sim.run([&](TestEv, std::uint32_t arg) { order.push_back(arg); });
  ASSERT_EQ(order.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Des, CallbacksCanSchedule) {
  Calendar sim;
  int depth = 0;
  sim.schedule_at(0.0, TestEv::kSpawn, 0);
  const auto n = sim.run([&](TestEv, std::uint32_t) {
    if (++depth < 5) sim.schedule_in(1.0, TestEv::kSpawn, 0);
  });
  EXPECT_EQ(n, 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Des, NoTimeTravel) {
  Calendar sim;
  double seen = -1.0;
  sim.schedule_at(5.0, TestEv::kSpawn, 0);
  sim.run([&](TestEv kind, std::uint32_t) {
    if (kind == TestEv::kSpawn)
      sim.schedule_at(1.0, TestEv::kRecord, 0);  // in the past: clamped
    else
      seen = sim.now();
  });
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Des, NegativeDelayClamped) {
  Calendar sim;
  sim.schedule_in(-3.0, TestEv::kRecord, 0);
  sim.run([](TestEv, std::uint32_t) {});
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Des, NanTimeRunsNowAndKeepsTimeOrder) {
  Calendar sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Enough events that a NaN key in the heap would scramble the order.
  for (std::uint32_t i = 1; i <= 32; ++i)
    sim.schedule_at(static_cast<double>((i * 7) % 32 + 1), TestEv::kRecord,
                    (i * 7) % 32 + 1);
  sim.schedule_at(2.0, TestEv::kSpawn, 0);
  std::vector<std::uint32_t> order;
  std::vector<double> times;
  sim.run([&](TestEv kind, std::uint32_t arg) {
    if (kind == TestEv::kSpawn) {
      sim.schedule_at(nan, TestEv::kRecord, 100);
      sim.schedule_in(nan, TestEv::kRecord, 101);
      return;
    }
    order.push_back(arg);
    times.push_back(sim.now());
  });
  ASSERT_EQ(order.size(), 34u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_FALSE(std::any_of(times.begin(), times.end(),
                           [](double t) { return std::isnan(t); }));
  // The NaN events ran at t = 2, right after the spawner, in FIFO order.
  const auto at = std::find(order.begin(), order.end(), 100u);
  ASSERT_NE(at, order.end());
  EXPECT_EQ(*(at + 1), 101u);
  EXPECT_DOUBLE_EQ(times[at - order.begin()], 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 32.0);
}

TEST(Des, MatchesStableSortAcrossMagnitudes) {
  // The heap compares time bit patterns: check that order against a
  // stable sort over zeros of both signs, subnormals, huge values,
  // infinity and many ties.
  const double times[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          1e-300,
                          1e-9,
                          0.5,
                          1.0,
                          1.0 + 1e-15,
                          3e8,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity()};
  Calendar sim;
  std::vector<std::pair<double, std::uint32_t>> expected;
  std::uint64_t x = 12345;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double t = times[(x >> 33) % std::size(times)];
    sim.schedule_at(t, TestEv::kRecord, i);
    expected.emplace_back(t, i);
  }
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint32_t> order;
  sim.run([&](TestEv, std::uint32_t arg) { order.push_back(arg); });
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    ASSERT_EQ(order[i], expected[i].second) << "position " << i;
  EXPECT_EQ(sim.now(), std::numeric_limits<double>::infinity());
}

TEST(Des, EventCapStopsRunaway) {
  Calendar sim;
  sim.schedule_at(0.0, TestEv::kSpawn, 0);
  const auto n = sim.run(
      [&](TestEv, std::uint32_t) { sim.schedule_in(1.0, TestEv::kSpawn, 0); },
      1000);
  EXPECT_EQ(n, 1000u);
  EXPECT_TRUE(sim.hit_event_limit());  // capped with work still pending
  EXPECT_FALSE(sim.empty());
}

TEST(Des, DrainedRunClearsEventLimitFlag) {
  Calendar sim;
  sim.schedule_at(1.0, TestEv::kRecord, 0);
  sim.schedule_at(2.0, TestEv::kRecord, 0);
  sim.run([](TestEv, std::uint32_t) {}, 1);
  ASSERT_TRUE(sim.hit_event_limit());
  sim.run([](TestEv, std::uint32_t) {}, 1000);
  EXPECT_FALSE(sim.hit_event_limit());
  EXPECT_TRUE(sim.empty());
}

// --- DES lanes -----------------------------------------------------------

/// The calendar's contract spelled out naively: pending events in a list,
/// each run step taking the first one of least time (a stable sort on
/// (time, insertion)), with the calendar's clamps.
class ReferenceCalendar {
 public:
  double now() const { return now_; }
  void schedule_at(double t, TestEv kind, std::uint32_t arg) {
    pending_.push_back({(!(t >= now_) ? now_ : t) + 0.0, kind, arg});
  }
  void schedule_in(double delay, TestEv kind, std::uint32_t arg) {
    schedule_at(now_ + (delay < 0.0 ? 0.0 : delay), kind, arg);
  }
  template <typename Handler>
  void run(Handler&& handle) {
    while (!pending_.empty()) {
      const auto first = std::min_element(
          pending_.begin(), pending_.end(),
          [](const Pending& a, const Pending& b) { return a.time < b.time; });
      const Pending ev = *first;
      pending_.erase(first);
      now_ = ev.time;
      handle(ev.kind, ev.arg);
    }
  }

 private:
  struct Pending {
    double time;
    TestEv kind;
    std::uint32_t arg;
  };
  std::vector<Pending> pending_;
  double now_ = 0.0;
};

constexpr double kLocalHop = 4e-7;   // ClusterSpec::hopper()'s latencies
constexpr double kRemoteHop = 1.6e-6;

/// A seeded script of ~3000 events from `t0` on: lane delays, delays that
/// miss a lane by one ulp, exact ties (zero delays, `schedule_at(now)`,
/// and a heap event at a lane event's time), times in the past, and
/// events scheduled from the handler. Returns each handled event's
/// argument and the bits of now() when it ran.
template <typename Cal>
std::vector<std::pair<std::uint32_t, std::uint64_t>> run_script(
    Cal& sim, double t0, std::uint64_t seed) {
  std::uint64_t x = seed;
  const auto draw = [&x](std::uint64_t n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % n;
  };
  std::uint32_t next_arg = 0;
  const auto spawn = [&] {
    const std::uint32_t arg = next_arg++;
    switch (draw(9)) {
      case 0: return sim.schedule_in(kLocalHop, TestEv::kSpawn, arg);
      case 1: return sim.schedule_in(kRemoteHop, TestEv::kSpawn, arg);
      case 2:
        return sim.schedule_in(std::nextafter(kRemoteHop, 1.0),
                               TestEv::kSpawn, arg);
      case 3: return sim.schedule_in(0.0, TestEv::kSpawn, arg);
      case 4: return sim.schedule_at(sim.now(), TestEv::kSpawn, arg);
      case 5:
        return sim.schedule_at(sim.now() + kRemoteHop, TestEv::kSpawn, arg);
      case 6:
        return sim.schedule_at(sim.now() * 0.5 - 1.0, TestEv::kSpawn, arg);
      case 7:
        return sim.schedule_in(1e-7 * static_cast<double>(draw(40)),
                               TestEv::kSpawn, arg);
      default: return sim.schedule_in(kLocalHop, TestEv::kSpawn, arg);
    }
  };
  for (int i = 0; i < 8; ++i) sim.schedule_at(t0, TestEv::kSpawn, next_arg++);
  for (int i = 0; i < 8; ++i) spawn();  // from outside run(), at now = 0
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
  sim.run([&](TestEv, std::uint32_t arg) {
    seen.emplace_back(arg, std::bit_cast<std::uint64_t>(sim.now()));
    for (auto n = draw(4); n > 0 && next_arg < 3000; --n) spawn();
  });
  return seen;
}

TEST(Des, LanesPopInStableSortOrderAcrossMagnitudes) {
  // At 1e13 a hop is below half an ulp of now: every lane event ties.
  for (const double t0 : {0.0, 1e-3, 1.0, 3e4, 1e9, 1e13}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      ReferenceCalendar ref;
      const auto expected = run_script(ref, t0, seed);
      ASSERT_GE(expected.size(), 1000u) << t0;
      Calendar plain;
      EXPECT_EQ(run_script(plain, t0, seed), expected) << t0 << " " << seed;
      Calendar laned{kLocalHop, kRemoteHop};
      EXPECT_EQ(run_script(laned, t0, seed), expected) << t0 << " " << seed;
      EXPECT_TRUE(laned.empty());
      EXPECT_EQ(laned.events_processed(), expected.size());
    }
  }
}

TEST(Des, UnmatchedDelaysKeepTheClamps) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Lanes at +0 and 0.5: of the delays below only the +0.0 one takes a
  // lane (-0 does not bit-equal it); the rest fall through to the heap.
  Calendar sim{0.0, 0.5};
  std::vector<std::uint32_t> order;
  std::vector<double> times;
  sim.schedule_at(2.0, TestEv::kSpawn, 0);
  sim.run([&](TestEv kind, std::uint32_t arg) {
    if (kind == TestEv::kSpawn) {
      sim.schedule_in(std::nextafter(0.5, 1.0), TestEv::kRecord, 1);
      sim.schedule_in(nan, TestEv::kRecord, 2);
      sim.schedule_in(-3.0, TestEv::kRecord, 3);
      sim.schedule_in(-0.0, TestEv::kRecord, 4);
      sim.schedule_in(0.0, TestEv::kRecord, 5);  // the lane, ties by seq
      sim.schedule_in(0.25, TestEv::kRecord, 6);
      return;
    }
    order.push_back(arg);
    times.push_back(sim.now());
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 4, 5, 6, 1}));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(times[i], 2.0) << i;
    EXPECT_FALSE(std::signbit(times[i])) << i;
  }
  EXPECT_EQ(times[4], 2.25);
  EXPECT_EQ(times[5], 2.0 + std::nextafter(0.5, 1.0));
}

TEST(Des, EventCapStopsWithOnlyLaneEventsPending) {
  Calendar sim{1.0};
  sim.schedule_in(1.0, TestEv::kSpawn, 0);
  const auto n = sim.run(
      [&](TestEv, std::uint32_t) { sim.schedule_in(1.0, TestEv::kSpawn, 0); },
      1000);
  EXPECT_EQ(n, 1000u);
  EXPECT_TRUE(sim.hit_event_limit());
  EXPECT_FALSE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 1000.0);
}

TEST(Des, RejectsBadLaneDelays) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1e-9})
    EXPECT_THROW(Calendar({1.0, bad}), std::invalid_argument) << bad;
}

// --- topology ------------------------------------------------------------

TEST(Topology, NodeMapping) {
  const ClusterSpec hopper = ClusterSpec::hopper();
  EXPECT_EQ(hopper.cores_per_node, 24u);
  EXPECT_EQ(hopper.node_of(0), 0u);
  EXPECT_EQ(hopper.node_of(23), 0u);
  EXPECT_EQ(hopper.node_of(24), 1u);
  EXPECT_TRUE(hopper.same_node(0, 23));
  EXPECT_FALSE(hopper.same_node(23, 24));
}

TEST(Topology, LatencyLocalVsRemote) {
  const ClusterSpec spec = ClusterSpec::opteron_cluster();
  EXPECT_LT(spec.latency(0, 1), spec.latency(0, 100));
  EXPECT_DOUBLE_EQ(spec.latency(0, 1), spec.local_latency_s);
  EXPECT_DOUBLE_EQ(spec.latency(0, 100), spec.remote_latency_s);
}

TEST(Topology, TransferTimeIncludesBandwidth) {
  const ClusterSpec spec = ClusterSpec::hopper();
  const double small = spec.transfer_time(0, 100, 0);
  const double big = spec.transfer_time(0, 100, 1 << 20);
  EXPECT_DOUBLE_EQ(small, spec.remote_latency_s);
  EXPECT_GT(big, small);
  EXPECT_NEAR(big - small, double(1 << 20) / spec.bandwidth_bps, 1e-12);
}

TEST(Mesh, NearSquareFactorization) {
  const ProcessMesh m(12);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.size(), 12u);
  const ProcessMesh s(16);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_EQ(s.rows(), 4u);
}

TEST(Mesh, InteriorHasFourNeighbors) {
  const ProcessMesh m(16);  // 4x4
  const auto n = m.neighbors(5);  // row 1, col 1
  EXPECT_EQ(n.size(), 4u);
}

TEST(Mesh, CornerHasTwoNeighbors) {
  const ProcessMesh m(16);
  EXPECT_EQ(m.neighbors(0).size(), 2u);
  EXPECT_EQ(m.neighbors(15).size(), 2u);
}

TEST(Mesh, NeighborsAreSymmetric) {
  const ProcessMesh m(13);  // ragged mesh
  for (std::uint32_t r = 0; r < m.size(); ++r) {
    for (const auto n : m.neighbors(r)) {
      const auto back = m.neighbors(n);
      EXPECT_NE(std::find(back.begin(), back.end(), r), back.end())
          << r << " <-> " << n;
    }
  }
}

TEST(Mesh, RaggedMeshExcludesMissingRanks) {
  const ProcessMesh m(5);  // 3x2ish: ranks 0..4 only
  for (std::uint32_t r = 0; r < m.size(); ++r)
    for (const auto n : m.neighbors(r)) EXPECT_LT(n, 5u);
}

TEST(Mesh, HopsIsManhattan) {
  const ProcessMesh m(16);  // 4x4
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);
  EXPECT_EQ(m.hops(0, 15), 6u);
  EXPECT_EQ(m.hops(5, 6), 1u);
}

TEST(Mesh, SingleProcessor) {
  const ProcessMesh m(1);
  EXPECT_TRUE(m.neighbors(0).empty());
}

// --- Chase–Lev deque --------------------------------------------------------

TEST(ChaseLev, OwnerPushPopIsLifo) {
  ChaseLevDeque<std::intptr_t> dq;
  for (std::intptr_t i = 1; i <= 5; ++i) dq.push(i);
  std::intptr_t v = 0;
  for (std::intptr_t i = 5; i >= 1; --i) {
    ASSERT_TRUE(dq.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(dq.pop(v));
}

TEST(ChaseLev, StealTakesOldestFirst) {
  ChaseLevDeque<std::intptr_t> dq;
  for (std::intptr_t i = 1; i <= 5; ++i) dq.push(i);
  std::intptr_t v = 0;
  for (std::intptr_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(dq.steal(v));
    EXPECT_EQ(v, i);  // FIFO from the top end
  }
  EXPECT_FALSE(dq.steal(v));
}

TEST(ChaseLev, GrowPathPreservesContents) {
  ChaseLevDeque<std::intptr_t> dq(8);  // forces several grows
  const std::intptr_t n = 1000;
  for (std::intptr_t i = 0; i < n; ++i) dq.push(i);
  EXPECT_EQ(dq.size_approx(), static_cast<std::size_t>(n));
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::intptr_t v = 0;
  while (dq.pop(v)) seen[static_cast<std::size_t>(v)] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ChaseLev, MixedPushPopInterleavesWithGrow) {
  ChaseLevDeque<std::intptr_t> dq(8);
  std::intptr_t next = 0, popped = 0;
  std::intptr_t v = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 37; ++i) dq.push(next++);
    for (int i = 0; i < 11; ++i)
      if (dq.pop(v)) ++popped;
  }
  while (dq.pop(v)) ++popped;
  EXPECT_EQ(popped, next);
}

// Owner pops while thieves steal: every element claimed exactly once.
// This is the primary TSan target for the deque protocol.
TEST(ChaseLev, OwnerAndThievesClaimEachItemOnce) {
  ChaseLevDeque<std::intptr_t> dq(8);
  constexpr std::intptr_t kItems = 20000;
  constexpr int kThieves = 3;
  std::vector<std::atomic<int>> claims(kItems);
  std::atomic<std::intptr_t> taken{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::intptr_t v = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (dq.steal(v)) {
          ++claims[static_cast<std::size_t>(v)];
          taken.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  // Owner: push in bursts, pop in between (grow path exercised under
  // concurrent steals).
  std::intptr_t pushed = 0, v = 0;
  while (pushed < kItems) {
    const std::intptr_t burst = std::min<std::intptr_t>(64, kItems - pushed);
    for (std::intptr_t i = 0; i < burst; ++i) dq.push(pushed++);
    for (int i = 0; i < 24; ++i) {
      if (dq.pop(v)) {
        ++claims[static_cast<std::size_t>(v)];
        taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  while (dq.pop(v)) {
    ++claims[static_cast<std::size_t>(v)];
    taken.fetch_add(1, std::memory_order_relaxed);
  }
  while (taken.load(std::memory_order_acquire) < kItems)
    std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (std::intptr_t i = 0; i < kItems; ++i)
    EXPECT_EQ(claims[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
}

// --- scheduler --------------------------------------------------------------

TEST(Scheduler, ExecutesAllExternalTasks) {
  Scheduler sched(4);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) sched.submit([&] { ++count; }, group);
  sched.wait(group);
  EXPECT_EQ(count.load(), 500);
}

TEST(Scheduler, WaitOnEmptyGroupReturns) {
  Scheduler sched(2);
  TaskGroup group;
  sched.wait(group);  // must not hang
  SUCCEED();
}

TEST(Scheduler, RecursiveSubmissionQuiesces) {
  Scheduler sched(4);
  TaskGroup group;
  std::atomic<int> count{0};
  std::function<void(int)> spawn = [&](int depth) {
    ++count;
    if (depth < 4) {
      for (int i = 0; i < 3; ++i)
        sched.submit([&, depth] { spawn(depth + 1); }, group);
    }
  };
  sched.submit([&] { spawn(0); }, group);
  sched.wait(group);
  // 1 + 3 + 9 + 27 + 81 = 121 nodes of the spawn tree.
  EXPECT_EQ(count.load(), 121);
}

TEST(Scheduler, NestedParallelForCompletes) {
  Scheduler sched(4);
  std::atomic<int> count{0};
  parallel_for(sched, 8, [&](std::size_t) {
    parallel_for(sched, 16, [&](std::size_t) { ++count; }, 1);
  }, 1);
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(Scheduler, PerGroupWaitIgnoresOtherGroups) {
  Scheduler sched(4);
  TaskGroup slow_group, fast_group;
  std::atomic<bool> slow_done{false};
  std::atomic<bool> release_slow{false};
  sched.submit([&] {
    while (!release_slow.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    slow_done.store(true, std::memory_order_release);
  }, slow_group);
  std::atomic<int> fast{0};
  for (int i = 0; i < 32; ++i) sched.submit([&] { ++fast; }, fast_group);
  sched.wait(fast_group);  // must return while the slow task still runs
  EXPECT_EQ(fast.load(), 32);
  EXPECT_FALSE(slow_done.load());
  release_slow.store(true, std::memory_order_release);
  sched.wait(slow_group);
  EXPECT_TRUE(slow_done.load());
}

TEST(Scheduler, CountersAccountForEveryTask) {
  Scheduler sched(4);
  TaskGroup group;
  for (int i = 0; i < 300; ++i)
    sched.submit([] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }, group);
  sched.wait(group);
  const auto counters = sched.counters();
  ASSERT_EQ(counters.size(), 4u);
  std::uint64_t executed = 0;
  for (const auto& c : counters)
    executed += c.executed_local + c.executed_stolen;
  EXPECT_EQ(executed, 300u);
}

TEST(Scheduler, ParksWhenIdleAndWakesOnSubmit) {
  Scheduler sched(2);
  // Give the workers time to run through spin/yield backoff and park.
  // Parked time is only accounted on wake, so each attempt idles, then
  // submits a wave to wake everyone and re-reads the counters; the
  // widening idle window rides out a loaded `ctest -j` starving the
  // workers of the CPU they need to reach the parked state.
  double parked = 0.0;
  for (int attempt = 0; attempt < 6 && parked == 0.0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50 << attempt));
    TaskGroup group;
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i) sched.submit([&] { ++count; }, group);
    sched.wait(group);
    EXPECT_EQ(count.load(), 16);
    parked = 0.0;
    for (const auto& c : sched.counters()) parked += c.park_s;
  }
  EXPECT_GT(parked, 0.0);  // the idle period was parked, not spun
}

// Several waves of small tasks with random recursive spawns: the scheduler
// TSan target (steals, parking, group completion all under contention).
TEST(Scheduler, StressWavesOfRecursiveTasks) {
  Scheduler sched(4);
  for (int wave = 0; wave < 5; ++wave) {
    TaskGroup group;
    std::atomic<int> count{0};
    for (int i = 0; i < 400; ++i) {
      sched.submit([&, i] {
        ++count;
        if (i % 7 == 0)
          sched.submit([&] { ++count; }, group);
      }, group);
    }
    sched.wait(group);
    const int spawned = (400 + 6) / 7;
    EXPECT_EQ(count.load(), 400 + spawned);
  }
}

// --- scheduler error propagation -------------------------------------------

TEST(Scheduler, ThrowingTaskPropagatesAtParallelForJoin) {
  Scheduler sched(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for(sched, 64, [&](std::size_t i) {
        ++ran;
        if (i == 17) throw std::runtime_error("task 17 failed");
      }, 1),
      std::runtime_error);
  // The wave still quiesced: the scheduler is fully usable afterwards.
  std::atomic<int> after{0};
  parallel_for(sched, 32, [&](std::size_t) { ++after; }, 1);
  EXPECT_EQ(after.load(), 32);
}

TEST(Scheduler, FirstExceptionWinsAndGroupIsReusable) {
  Scheduler sched(4);
  TaskGroup group;
  for (int i = 0; i < 16; ++i)
    sched.submit([] { throw std::runtime_error("boom"); }, group);
  int caught = 0;
  try {
    sched.wait(group);
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);  // later exceptions of the wave are dropped
  EXPECT_FALSE(group.has_error());  // wait() consumed the latched error
  std::atomic<int> ok{0};
  sched.submit([&] { ++ok; }, group);
  sched.wait(group);  // must not rethrow a stale error
  EXPECT_EQ(ok.load(), 1);
}

TEST(Scheduler, NestedThrowPropagatesThroughWorkerHelp) {
  Scheduler sched(4);
  // The outer body runs on a worker; its inner parallel_for joins via the
  // worker-help path, which must also rethrow.
  EXPECT_THROW(
      parallel_for(sched, 4, [&](std::size_t) {
        parallel_for(sched, 8, [&](std::size_t j) {
          if (j == 3) throw std::runtime_error("inner");
        }, 1);
      }, 1),
      std::runtime_error);
}

// --- parallel_for on the scheduler ------------------------------------------

TEST(Scheduler, ParallelForCoversRange) {
  Scheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(sched, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ParallelForZeroIsNoOp) {
  Scheduler sched(2);
  parallel_for(sched, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(Scheduler, TasksRunConcurrently) {
  Scheduler sched(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  parallel_for(
      sched, 64,
      [&](std::size_t) {
        const int now = ++concurrent;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --concurrent;
      },
      /*chunk=*/1);
  EXPECT_GT(peak.load(), 1);
}

// Two concurrent parallel_for calls on one scheduler: each waits on its own
// completion token, so the quick call must not block behind the slow one.
TEST(Scheduler, ConcurrentParallelForsAreIndependent) {
  Scheduler sched(4);
  std::atomic<bool> slow_finished{false};
  std::thread slow([&] {
    // Two long tasks: they occupy at most two of the four workers, so the
    // quick call below always has idle workers available.
    parallel_for(sched, 2, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }, /*chunk=*/1);
    slow_finished.store(true, std::memory_order_release);
  });
  // Let the slow tasks occupy workers first.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::atomic<int> quick{0};
  parallel_for(sched, 64, [&](std::size_t) { ++quick; }, /*chunk=*/1);
  EXPECT_EQ(quick.load(), 64);
  EXPECT_FALSE(slow_finished.load());  // quick call did not wait for slow
  slow.join();
  EXPECT_TRUE(slow_finished.load());
}

// --- a wave's shared cursor and the caller that claims items ----------------

/// Keeps one worker of `sched` busy until release(), so an external
/// parallel_for on a one-worker scheduler runs on its caller alone and its
/// runner task starts only after release().
class HeldWorker {
 public:
  explicit HeldWorker(Scheduler& sched) : sched_(sched) {
    sched_.submit([this] {
      started_.store(true, std::memory_order_release);
      while (!released_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }, group_);
    while (!started_.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~HeldWorker() { release(); }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;

  void release() {
    released_.store(true, std::memory_order_release);
    sched_.wait(group_);
  }

 private:
  Scheduler& sched_;
  TaskGroup group_;
  std::atomic<bool> started_{false};
  std::atomic<bool> released_{false};
};

std::uint64_t executed_tasks(const Scheduler& sched) {
  std::uint64_t n = 0;
  for (const auto& c : sched.counters())
    n += c.executed_local + c.executed_stolen;
  return n;
}

TEST(Scheduler, ExternalWaveCompletesOnTheCallerAlone) {
  Scheduler sched(1);
  HeldWorker held(sched);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  parallel_for(sched, 16, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
  }, /*chunk=*/1);
  EXPECT_EQ(on_caller.load(), 16);  // returned while the worker is held
}

// The wave returns before its runner starts; the runner then runs against
// the spent record. `fn` owns heap memory and dies with its scope, so a
// runner that called it would be a use-after-free under ASan, and one that
// touched the record unsynchronized a race under TSan.
TEST(Scheduler, RunnerThatStartsAfterItsWaveReturnedTouchesNothingOfIt) {
  Scheduler sched(1);
  std::atomic<int> ran{0};
  {
    HeldWorker held(sched);
    const std::uint64_t before = executed_tasks(sched);
    {
      const std::vector<int> owned(64, 1);
      const std::function<void(std::size_t)> fn = [&ran, owned](std::size_t) {
        ran += owned[0];
      };
      parallel_for(sched, 16, fn, /*chunk=*/1);
    }
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(executed_tasks(sched), before);  // the runner is still queued
  }
  // The held task and the wave's one runner have both run by now, and the
  // runner ran no item.
  for (int i = 0; i < 2000 && executed_tasks(sched) < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(executed_tasks(sched), 2u);
  EXPECT_EQ(ran.load(), 16);
  parallel_for(sched, 32, [&](std::size_t) { ++ran; }, 1);
  EXPECT_EQ(ran.load(), 48);
}

TEST(Scheduler, WaveQueuesAtMostOneRunnerPerWorker) {
  Scheduler sched(4);
  std::atomic<int> ran{0};
  parallel_for(sched, 64, [&](std::size_t) { ++ran; }, /*chunk=*/1);
  EXPECT_EQ(ran.load(), 64);
  // Runners may still be finishing after the join; they are tasks, and
  // there are exactly four of them however the items were shared.
  for (int i = 0; i < 2000 && executed_tasks(sched) < 4; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(executed_tasks(sched), 4u);
  // Fewer chunks than workers: one runner per chunk beyond the caller's.
  parallel_for(sched, 3, [&](std::size_t) { ++ran; }, /*chunk=*/1);
  for (int i = 0; i < 2000 && executed_tasks(sched) < 6; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(executed_tasks(sched), 6u);
  EXPECT_EQ(ran.load(), 67);
}

TEST(Scheduler, CallerItemExceptionIsRethrownAtTheJoinAndTheFirstWins) {
  Scheduler sched(1);
  HeldWorker held(sched);
  std::atomic<int> ran{0};
  try {
    parallel_for(sched, 16, [&](std::size_t i) {
      ++ran;
      if (i == 3) throw std::runtime_error("item 3");
      if (i == 7) throw std::logic_error("item 7");
    }, /*chunk=*/1);
    FAIL() << "the wave did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 3");
  }
  EXPECT_EQ(ran.load(), 16);  // the other items still ran
}

TEST(Scheduler, CancelledWaveReturnsFalseWhileTheCallerClaims) {
  Scheduler sched(1);
  HeldWorker held(sched);
  CancelToken token;
  std::atomic<int> ran{0};
  const bool complete = parallel_for_cancellable(
      sched, 100,
      [&](std::size_t i) {
        ++ran;
        if (i == 10) token.request_cancel();
      },
      token, /*chunk=*/1);
  EXPECT_FALSE(complete);
  EXPECT_EQ(ran.load(), 11);  // the caller polls before every item
}

TEST(Scheduler, CancelledWaveOverrunsAtMostOneItemPerClaimer) {
  Scheduler sched(4);
  CancelToken token;
  std::atomic<int> after_cancel{0};
  std::atomic<bool> cancelled{false};
  const bool complete = parallel_for_cancellable(
      sched, 100000,
      [&](std::size_t i) {
        if (cancelled.load()) ++after_cancel;
        if (i == 200) {
          token.request_cancel();
          cancelled.store(true);
        }
      },
      token, /*chunk=*/1);
  EXPECT_FALSE(complete);
  // An item that sees `cancelled` polled the token before it fired, and
  // its claimer polls again, sees the token and stops: one such item at
  // most for each of the caller and the four runners.
  EXPECT_LE(after_cancel.load(), 5);
}

// --- work units --------------------------------------------------------------

TEST(WorkUnits, SecondsAreLinearInCounts) {
  const CostModel m;
  WorkCounts w;
  w.cd_queries = 10;
  const double base = m.seconds(w);
  w.cd_queries = 20;
  EXPECT_NEAR(m.seconds(w), 2.0 * base, 1e-15);
}

TEST(WorkUnits, ScaleMultipliesUniformly) {
  CostModel m;
  WorkCounts w;
  w.narrow_tests = 100;
  w.knn_candidates = 50;
  const double base = m.seconds(w);
  m.scale = 10.0;
  EXPECT_NEAR(m.seconds(w), 10.0 * base, 1e-18);
}

TEST(WorkUnits, PaperFidelityScalesUp) {
  const CostModel paper = CostModel::paper_fidelity();
  EXPECT_GT(paper.scale, 1.0);
}

TEST(WorkUnits, CountsAccumulate) {
  WorkCounts a, b;
  a.cd_queries = 3;
  b.cd_queries = 4;
  b.rrt_extends = 2;
  a += b;
  EXPECT_EQ(a.cd_queries, 7u);
  EXPECT_EQ(a.rrt_extends, 2u);
}

}  // namespace
}  // namespace pmpl::runtime
