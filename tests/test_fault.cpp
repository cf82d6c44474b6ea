// Tests for the fault-injection subsystem and the fault-tolerant
// work-stealing engine: FaultInjector semantics, the region-conservation
// property under crashes / lossy links / token loss, termination and
// leader migration driven end-to-end through the DES, and the
// straggler-aware bulk-synchronous phase model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "loadbal/bulk_sync.hpp"
#include "loadbal/ws_engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/topology.hpp"

namespace pmpl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Earliest planned crash of `rank` (+inf when it never crashes).
double crash_time(const runtime::FaultPlan& plan, std::uint32_t rank) {
  double t = kInf;
  for (const auto& c : plan.crashes)
    if (c.rank == rank && c.at_s < t) t = c.at_s;
  return t;
}

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjector, EmptyPlanIsInactive) {
  runtime::FaultInjector inject{runtime::FaultPlan{}};
  EXPECT_FALSE(inject.active());
  EXPECT_TRUE(runtime::FaultPlan{}.empty());
}

TEST(FaultInjector, CrashTimeIsEarliestForRank) {
  // The crash clock `expect_regions_conserved` checks completions against.
  runtime::FaultPlan plan;
  plan.crash(3, 2.0).crash(3, 1.0).crash(5, 4.0);
  EXPECT_DOUBLE_EQ(crash_time(plan, 3), 1.0);
  EXPECT_DOUBLE_EQ(crash_time(plan, 5), 4.0);
  EXPECT_EQ(crash_time(plan, 0), kInf);
}

TEST(FaultInjector, StretchedServiceIdentityWithoutWindows) {
  runtime::FaultPlan plan;
  plan.crash(0, 10.0);  // active plan, but no straggler windows
  const runtime::FaultInjector inject(plan);
  EXPECT_DOUBLE_EQ(inject.stretched_service(1, 0.37, 2.5), 2.5);
  EXPECT_DOUBLE_EQ(inject.stretched_service(0, 0.0, 0.0), 0.0);
}

TEST(FaultInjector, StretchedServiceInsideWindow) {
  runtime::FaultPlan plan;
  plan.straggler(0, 4.0, 10.0, 20.0);
  const runtime::FaultInjector inject(plan);
  // Entirely inside the window: 2 nominal seconds take 8 wall seconds.
  EXPECT_NEAR(inject.stretched_service(0, 10.0, 2.0), 8.0, 1e-12);
  // Other ranks are unaffected.
  EXPECT_DOUBLE_EQ(inject.stretched_service(1, 10.0, 2.0), 2.0);
}

TEST(FaultInjector, StretchedServiceCrossesWindowBoundary) {
  runtime::FaultPlan plan;
  plan.straggler(0, 4.0, 10.0, 20.0);
  const runtime::FaultInjector inject(plan);
  // Before the window entirely: identity.
  EXPECT_NEAR(inject.stretched_service(0, 5.0, 5.0), 5.0, 1e-12);
  // 2 nominal seconds at rate 1 reach t=10, the remaining 2 nominal run
  // 4x slower: 2 + 8 = 10 wall seconds.
  EXPECT_NEAR(inject.stretched_service(0, 8.0, 4.0), 10.0, 1e-12);
  // Work that spans past the window's end resumes full speed: 10->20 holds
  // 2.5 nominal (10 wall), the rest finishes at rate 1.
  EXPECT_NEAR(inject.stretched_service(0, 10.0, 4.0), 10.0 + 1.5, 1e-12);
}

TEST(FaultInjector, TargetedLinkDropsAndDelays) {
  runtime::FaultPlan plan;
  plan.links.push_back({1, 2, 1.0});          // always drop 1->2
  plan.links.push_back({3, 4, 0.0, 5e-4, 0.0, kInf});  // delay only
  runtime::FaultInjector inject(plan);
  EXPECT_TRUE(inject.on_message(1, 2, 0.0).dropped);
  EXPECT_FALSE(inject.on_message(2, 1, 0.0).dropped);   // direction matters
  EXPECT_FALSE(inject.on_message(0, 7, 0.0).dropped);
  const auto fate = inject.on_message(3, 4, 1.0);
  EXPECT_FALSE(fate.dropped);
  EXPECT_DOUBLE_EQ(fate.extra_delay_s, 5e-4);
}

TEST(FaultInjector, LinkWindowRespected) {
  runtime::FaultPlan plan;
  plan.lossy_links(1.0, 0.0, 2.0, 3.0);  // drop everything in [2, 3) only
  runtime::FaultInjector inject(plan);
  EXPECT_FALSE(inject.on_message(0, 1, 1.0).dropped);
  EXPECT_TRUE(inject.on_message(0, 1, 2.5).dropped);
  EXPECT_FALSE(inject.on_message(0, 1, 3.5).dropped);
}

TEST(FaultInjector, TokenFaultsHitTokensNotMessages) {
  runtime::FaultPlan plan;
  plan.lose_tokens(1.0);
  runtime::FaultInjector inject(plan);
  EXPECT_TRUE(inject.on_token(0, 1, 0.0).dropped);
  EXPECT_FALSE(inject.on_message(0, 1, 0.0).dropped);
}

TEST(FaultInjector, TokensAlsoSubjectToLinkFaults) {
  runtime::FaultPlan plan;
  plan.links.push_back({0, 1, 1.0});  // no token fault; the link eats all
  runtime::FaultInjector inject(plan);
  EXPECT_TRUE(inject.on_token(0, 1, 0.0).dropped);
}

// --- work-stealing engine under faults --------------------------------------

std::vector<loadbal::WsItem> make_items(std::size_t n) {
  std::vector<loadbal::WsItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].service_s = 1e-4 * (1.0 + static_cast<double>(i % 7));
    items[i].bytes = 256;
  }
  return items;
}

std::vector<std::uint32_t> block_assignment(std::size_t n, std::uint32_t p) {
  std::vector<std::uint32_t> a(n);
  for (std::size_t i = 0; i < n; ++i)
    a[i] = static_cast<std::uint32_t>(i * p / n);
  return a;
}

loadbal::WsConfig base_config(loadbal::StealPolicyKind policy =
                                  loadbal::StealPolicyKind::kHybrid) {
  loadbal::WsConfig cfg;
  cfg.policy = policy;
  cfg.cluster = runtime::ClusterSpec::hopper();
  cfg.seed = 7;
  return cfg;
}

/// The acceptance invariant: under any plan that leaves at least one
/// location alive, every region is executed (exactly once durably) by a
/// location that survives past the execution, and termination is declared
/// only after all of that work completed.
void expect_regions_conserved(const loadbal::WsResult& r,
                              std::size_t n,
                              const runtime::FaultPlan& plan) {
  ASSERT_TRUE(r.terminated);
  ASSERT_FALSE(r.hit_event_limit);
  ASSERT_EQ(r.completion_s.size(), n);
  ASSERT_EQ(r.final_owner.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GE(r.completion_s[i], 0.0) << "region " << i << " never executed";
    EXPECT_LE(r.completion_s[i], r.makespan_s)
        << "region " << i << " completed after declared termination";
    const auto owner = r.final_owner[i];
    EXPECT_LT(r.completion_s[i], crash_time(plan, owner))
        << "region " << i << " 'completed' on rank " << owner
        << " after that rank crashed";
  }
  std::uint64_t executed = 0;
  for (std::size_t l = 0; l < r.local_tasks.size(); ++l)
    executed += r.local_tasks[l] + r.stolen_tasks[l];
  EXPECT_GE(executed, n);  // re-executions may add, never subtract
}

TEST(FaultWs, FaultFreeRunIsDeterministicWithZeroMetrics) {
  const auto items = make_items(64);
  const auto initial = block_assignment(items.size(), 4);
  const auto cfg = base_config();
  const auto a = loadbal::simulate_work_stealing(items, initial, 4, cfg);
  const auto b = loadbal::simulate_work_stealing(items, initial, 4, cfg);
  EXPECT_TRUE(a.terminated);
  EXPECT_FALSE(a.hit_event_limit);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);  // bit-for-bit replay
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.steal_requests, b.steal_requests);
  EXPECT_EQ(a.faults.crashes, 0u);
  EXPECT_EQ(a.faults.messages_dropped, 0u);
  EXPECT_EQ(a.faults.tokens_lost, 0u);
  EXPECT_EQ(a.faults.steal_retries, 0u);
  EXPECT_EQ(a.faults.grant_retransmits, 0u);
  EXPECT_EQ(a.faults.heartbeat_probes, 0u);
  EXPECT_DOUBLE_EQ(a.faults.reexecuted_service_s, 0.0);
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_GE(a.completion_s[i], 0.0);
}

TEST(FaultWs, FaultyRunIsDeterministic) {
  const auto items = make_items(64);
  const auto initial = block_assignment(items.size(), 4);
  auto cfg = base_config();
  cfg.faults.crash(1, 1e-3).lossy_links(0.2).lose_tokens(0.3);
  const auto a = loadbal::simulate_work_stealing(items, initial, 4, cfg);
  const auto b = loadbal::simulate_work_stealing(items, initial, 4, cfg);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
  EXPECT_EQ(a.faults.regions_recovered, b.faults.regions_recovered);
}

TEST(FaultWs, CrashedRankRegionsAreRecovered) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  // Rank 1 holds ~12 regions of ~4e-4 s each; crashing at 5e-4 leaves most
  // of its queue (plus one in-progress region) to recover.
  cfg.faults.crash(1, 5e-4);
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_GT(r.faults.regions_recovered, 0u);
  EXPECT_GT(r.faults.recovery_latency_max_s, 0.0);
  // The in-progress region was re-executed and its service re-spent.
  EXPECT_GE(r.faults.regions_reexecuted, 1u);
  EXPECT_GT(r.faults.reexecuted_service_s, 0.0);
}

TEST(FaultWs, LeaderCrashMigratesTerminationLeader) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  cfg.faults.crash(0, 5e-4);  // rank 0 initiates rounds until it dies
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_EQ(r.faults.crashes, 1u);
}

TEST(FaultWs, AllRanksCrashedNeverDeclaresTermination) {
  const auto items = make_items(32);
  const auto initial = block_assignment(items.size(), 2);
  auto cfg = base_config();
  cfg.faults.crash(0, 1e-4).crash(1, 1e-4);
  const auto r = loadbal::simulate_work_stealing(items, initial, 2, cfg);
  EXPECT_FALSE(r.terminated);  // quiescence was never reached
  EXPECT_FALSE(r.hit_event_limit);
  bool any_unexecuted = false;
  for (const double c : r.completion_s) any_unexecuted |= (c < 0.0);
  EXPECT_TRUE(any_unexecuted);
}

TEST(FaultWs, StragglerWindowAddsAccountedDelay) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  cfg.faults.straggler(2, 8.0, 0.0, kInf);
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_GT(r.faults.straggler_delay_s, 0.0);
}

TEST(FaultWs, LossyLinksDelayButNeverLoseRegions) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  cfg.faults.lossy_links(0.25, 1e-5);
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_GT(r.faults.messages_dropped, 0u);
  EXPECT_GT(r.faults.heartbeat_probes, 0u);
  EXPECT_EQ(r.faults.fenced, 0u);  // detector must ride out 25% loss
}

TEST(FaultWs, TokenLossIsRecoveredByRetryAndRegeneration) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  cfg.faults.lose_tokens(0.5);
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_GT(r.faults.tokens_lost, 0u);
}

TEST(FaultWs, MutedRankIsFencedAndItsWorkRecovered) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  auto cfg = base_config();
  // Every message rank 5 sends is lost: it can never ack a heartbeat, so
  // the detector must declare it dead (a false positive from the protocol's
  // point of view — rank 5 is then fenced so the recovery is safe).
  cfg.faults.links.push_back({5, runtime::kAnyRank, 1.0});
  const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
  expect_regions_conserved(r, items.size(), cfg.faults);
  EXPECT_GE(r.faults.fenced, 1u);
  EXPECT_GT(r.faults.regions_recovered, 0u);
}

TEST(FaultWs, RegionConservationPropertySweep) {
  const auto items = make_items(96);
  const auto initial = block_assignment(items.size(), 8);
  std::vector<runtime::FaultPlan> plans;
  plans.emplace_back().crash(1, 4e-4);
  plans.emplace_back().crash(1, 4e-4).crash(5, 8e-4).lossy_links(0.2, 1e-5);
  plans.emplace_back().lossy_links(0.3, 2e-5).lose_tokens(0.4);
  plans.emplace_back()
      .crash(2, 6e-4)
      .straggler(3, 6.0, 0.0, 5e-2)
      .lossy_links(0.15)
      .lose_tokens(0.25);
  const loadbal::StealPolicyKind policies[] = {
      loadbal::StealPolicyKind::kRandK, loadbal::StealPolicyKind::kDiffusive,
      loadbal::StealPolicyKind::kHybrid};
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    for (const auto policy : policies) {
      auto cfg = base_config(policy);
      cfg.faults = plans[pi];
      const auto r = loadbal::simulate_work_stealing(items, initial, 8, cfg);
      SCOPED_TRACE(::testing::Message()
                   << "plan " << pi << " policy " << static_cast<int>(policy));
      expect_regions_conserved(r, items.size(), plans[pi]);
    }
  }
}

// --- bulk-synchronous straggler model ---------------------------------------

TEST(BulkSyncFault, InjectorOverloadIdentityWithoutWindows) {
  const std::vector<double> service{1.0, 2.0, 3.0, 4.0};
  const std::vector<std::uint32_t> owner{0, 0, 1, 1};
  const auto cluster = runtime::ClusterSpec::hopper();
  runtime::FaultPlan plan;
  plan.crash(0, 100.0);  // active injector, no straggler windows
  const runtime::FaultInjector inject(plan);
  const auto plain = loadbal::static_phase(service, owner, 2, cluster);
  const auto faulty =
      loadbal::static_phase(service, owner, 2, cluster, inject, 0.0);
  EXPECT_DOUBLE_EQ(faulty.time_s, plain.time_s);
  EXPECT_DOUBLE_EQ(faulty.straggler_delay_s, 0.0);
  ASSERT_EQ(faulty.busy_s.size(), plain.busy_s.size());
  for (std::size_t i = 0; i < plain.busy_s.size(); ++i)
    EXPECT_DOUBLE_EQ(faulty.busy_s[i], plain.busy_s[i]);
}

TEST(BulkSyncFault, StragglerStretchesBarrier) {
  const std::vector<double> service{1.0, 1.0, 1.0, 1.0};
  const std::vector<std::uint32_t> owner{0, 0, 1, 1};
  const auto cluster = runtime::ClusterSpec::hopper();
  runtime::FaultPlan plan;
  plan.straggler(0, 3.0, 0.0, kInf);
  const runtime::FaultInjector inject(plan);
  const auto r = loadbal::static_phase(service, owner, 2, cluster, inject, 0.0);
  EXPECT_NEAR(r.busy_s[0], 6.0, 1e-12);   // 2 nominal seconds at 3x
  EXPECT_NEAR(r.busy_s[1], 2.0, 1e-12);
  EXPECT_NEAR(r.straggler_delay_s, 4.0, 1e-12);
  // The barrier waits for the straggler.
  const auto plain = loadbal::static_phase(service, owner, 2, cluster);
  EXPECT_NEAR(r.time_s - plain.time_s, 4.0, 1e-12);
}

TEST(BulkSyncFault, WindowedStragglerOnlyStretchesInsideWindow) {
  const std::vector<double> service{4.0, 4.0};
  const std::vector<std::uint32_t> owner{0, 1};
  const auto cluster = runtime::ClusterSpec::hopper();
  runtime::FaultPlan plan;
  plan.straggler(0, 2.0, 1.0, 3.0);  // 2 nominal seconds doubled
  const runtime::FaultInjector inject(plan);
  const auto r = loadbal::static_phase(service, owner, 2, cluster, inject, 0.0);
  // 1s at rate 1, then [1,3) holds 1 nominal (2 wall), then 2 more at rate 1.
  EXPECT_NEAR(r.busy_s[0], 1.0 + 2.0 + 2.0, 1e-12);
  EXPECT_NEAR(r.straggler_delay_s, 1.0, 1e-12);
}

}  // namespace
}  // namespace pmpl
