// Tests for rank resurrection (DESIGN.md §5i): the durable checkpoint
// container, the seeded chaos-schedule generator, the supervisor's
// restart path (the ISSUE's end-to-end restart gate: every rank SIGKILLed
// at least once, staggered, and the union roadmap still bit-identical to
// the fault-free DES with zero duplicated executions), the deliberate
// zombie scenario (a SIGSTOPped rank superseded while frozen must be
// fenced on resume without corrupting the directory), a mini chaos soak,
// and the no-residue guarantee of the forked harness.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "loadbal/chaos.hpp"
#include "loadbal/ws_cluster.hpp"
#include "runtime/fault_io.hpp"
#include "loadbal/ws_engine.hpp"
#include "loadbal/ws_rank.hpp"
#include "util/rng.hpp"

namespace pmpl {
namespace {

std::size_t tmp_residue() {
  DIR* d = ::opendir("/tmp");
  if (!d) return 0;
  std::size_t n = 0;
  while (dirent* e = ::readdir(d))
    if (std::strncmp(e->d_name, "pmpl_ws_", 8) == 0) ++n;
  ::closedir(d);
  return n;
}

std::uint64_t des_hash(std::uint64_t seed, const loadbal::ClusterItems& work,
                       std::uint32_t p) {
  loadbal::WsConfig wcfg;
  wcfg.seed = seed;
  wcfg.rand_k = 2;
  const auto des =
      loadbal::simulate_work_stealing(work.items, work.initial, p, wcfg);
  EXPECT_TRUE(des.terminated);
  return loadbal::roadmap_hash(seed, loadbal::completed_set(des));
}

// Duplicated executions across the final incarnations' lineage-spanning
// executed lists (the grant-ledger invariant the chaos harness pins).
std::uint64_t duplicate_executions(const loadbal::ClusterResult& r,
                                   std::size_t n) {
  std::vector<std::uint32_t> times(n, 0);
  for (std::size_t k = 0; k < r.ranks.size(); ++k) {
    if (k < r.reported.size() && !r.reported[k]) continue;
    for (std::uint32_t item : r.ranks[k].executed)
      if (item < n) ++times[item];
  }
  std::uint64_t dup = 0;
  for (std::uint32_t t : times)
    if (t > 1) dup += t - 1;
  return dup;
}

// --- durable checkpoint container --------------------------------------

TEST(RankCheckpoint, RoundTripsAndRejectsCorruption) {
  loadbal::RankCheckpoint c;
  c.rank = 2;
  c.generation = 3;
  c.fingerprint = 0xabcdef;
  c.rng_state[0] = 1;
  c.rng_state[3] = 4;
  c.queue = {1, 2};
  c.owner = {0, 1, 2, 2};
  c.done = {true, false, false, true};
  c.stolen = {false, true, false, false};
  c.death_known = {false, false, true};
  c.peer_gen = {0, 1, 0};
  c.executed = {3};
  c.ledger.push_back({1, 77, 42, {0, 2}});
  c.seen_grants = {9, 10};
  c.next_req_id = 100;
  c.next_grant_id = 200;
  c.busy_s = 1.5;
  c.counters[0] = 11;
  c.counters[13] = 13;

  const std::string path = "/tmp/pmpl_test_ckpt_roundtrip";
  ASSERT_TRUE(loadbal::save_rank_checkpoint(c, path));
  const auto back = loadbal::load_rank_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rank, c.rank);
  EXPECT_EQ(back->generation, c.generation);
  EXPECT_EQ(back->fingerprint, c.fingerprint);
  EXPECT_EQ(back->rng_state[3], 4u);
  EXPECT_EQ(back->queue, c.queue);
  EXPECT_EQ(back->owner, c.owner);
  EXPECT_EQ(back->done, c.done);
  EXPECT_EQ(back->death_known, c.death_known);
  EXPECT_EQ(back->peer_gen, c.peer_gen);
  ASSERT_EQ(back->ledger.size(), 1u);
  EXPECT_EQ(back->ledger[0].thief, 1u);
  EXPECT_EQ(back->ledger[0].grant_id, 77u);
  EXPECT_EQ(back->ledger[0].items, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(back->seen_grants, c.seen_grants);
  EXPECT_EQ(back->next_grant_id, 200u);
  EXPECT_DOUBLE_EQ(back->busy_s, 1.5);
  EXPECT_EQ(back->counters[13], 13u);

  // Flip one byte mid-file: the container checksum must reject it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 64, SEEK_SET);
  int b = std::fgetc(f);
  std::fseek(f, 64, SEEK_SET);
  std::fputc(b ^ 0x40, f);
  std::fclose(f);
  EXPECT_FALSE(loadbal::load_rank_checkpoint(path).has_value());
  ::unlink(path.c_str());
}

TEST(RankResult, RoundTripsAndRejectsCorruption) {
  using R = loadbal::WsRankResult;
  using T = runtime::TransportMetrics;
  const std::vector<std::uint64_t R::*> counters = {
      &R::local_tasks,       &R::stolen_tasks,      &R::steal_requests,
      &R::steal_grants,      &R::steal_denies,      &R::regions_migrated,
      &R::token_rounds,      &R::steal_retries,     &R::grant_retransmits,
      &R::regions_recovered, &R::heartbeat_probes,  &R::heartbeat_misses,
      &R::deaths_detected,   &R::tokens_regenerated,
      &R::stale_frames_rejected, &R::checkpoints_written, &R::rejoin_syncs};
  const std::vector<std::uint64_t T::*> transport = {
      &T::frames_sent,    &T::frames_received, &T::frames_dropped,
      &T::frames_delayed, &T::bytes_sent,      &T::bytes_received,
      &T::reconnects,     &T::connect_retries, &T::send_timeouts,
      &T::frames_stale};

  R r;
  r.rank = 2;
  r.generation = 3;
  r.terminated = true;
  r.fenced = false;
  r.superseded = true;
  r.restored = true;
  r.busy_s = 1.25;
  r.finish_s = 0.1 + 0.2;  // must come back bit-exact
  r.executed = {7, 0, 4};
  r.done = {true, false, true, true, false, false, true, true, true};
  std::uint64_t v = 1000;
  for (auto m : counters) r.*m = ++v;
  for (auto m : transport) r.transport.*m = (++v) << 33;

  const std::string path = "/tmp/pmpl_test_result_roundtrip";
  ASSERT_TRUE(loadbal::save_rank_result(r, path));
  IoStatus st = IoStatus::kOk;
  const auto back = loadbal::load_rank_result(path, 2, 3, &st);
  ASSERT_TRUE(back.has_value()) << to_string(st);
  EXPECT_EQ(back->rank, 2u);
  EXPECT_EQ(back->generation, 3u);
  EXPECT_EQ(back->terminated, r.terminated);
  EXPECT_EQ(back->fenced, r.fenced);
  EXPECT_EQ(back->superseded, r.superseded);
  EXPECT_EQ(back->restored, r.restored);
  EXPECT_EQ(back->busy_s, r.busy_s);
  EXPECT_EQ(back->finish_s, r.finish_s);
  EXPECT_EQ(back->executed, r.executed);
  EXPECT_EQ(back->done, r.done);
  for (auto m : counters) EXPECT_EQ((*back).*m, r.*m);
  for (auto m : transport) EXPECT_EQ(back->transport.*m, r.transport.*m);

  // A sound file for another rank or incarnation is not this report.
  EXPECT_FALSE(loadbal::load_rank_result(path, 1, 3, &st).has_value());
  EXPECT_EQ(st, IoStatus::kMalformed);
  EXPECT_FALSE(loadbal::load_rank_result(path, 2, 4, &st).has_value());
  EXPECT_EQ(st, IoStatus::kMalformed);

  // Flip each byte in turn: the container checksums reject every one.
  std::ifstream in(path, std::ios::binary);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(good.size(), 64u);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    EXPECT_FALSE(loadbal::load_rank_result(path, 2, 3).has_value())
        << "byte " << i;
  }
  ::unlink(path.c_str());
}

// --- seeded schedule generator -----------------------------------------

TEST(ChaosPlan, DeterministicAndBounded) {
  loadbal::ChaosConfig cfg;
  cfg.ranks = 4;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull, 12345ull}) {
    const auto a = loadbal::make_chaos_plan(cfg, seed);
    const auto b = loadbal::make_chaos_plan(cfg, seed);
    EXPECT_EQ(runtime::fault_plan_to_json(a), runtime::fault_plan_to_json(b));

    std::vector<std::uint32_t> kills(cfg.ranks, 0);
    for (const auto& c : a.crashes) {
      ASSERT_LT(c.rank, cfg.ranks);
      EXPECT_GT(c.at_s, 0.0);
      EXPECT_LE(c.at_s, loadbal::kChaosHorizonS);
      ++kills[c.rank];
    }
    for (std::uint32_t k : kills)
      EXPECT_LE(k, loadbal::kChaosMaxKillsPerRank);
    // A killed rank is never also paused (ambiguous schedules excluded).
    for (const auto& pz : a.pauses) EXPECT_EQ(kills[pz.rank], 0u);
    for (const auto& pt : a.partitions) {
      EXPECT_FALSE(pt.ranks.empty());
      EXPECT_LT(pt.ranks.size(), cfg.ranks);
    }
  }
  // Different seeds diverge (probabilistically certain over 5 seeds).
  EXPECT_NE(runtime::fault_plan_to_json(loadbal::make_chaos_plan(cfg, 1)),
            runtime::fault_plan_to_json(loadbal::make_chaos_plan(cfg, 2)));
}

// The default schedule generator is pinned plan for plan: a soak report
// names its schedules by seed, so a seed must keep drawing the same plan.
// Seed 1 kills one rank twice; seeds 10 and 13 between them draw every
// other fault kind (pause, drop and delay sweeps, token loss, partition).
TEST(ChaosPlan, DefaultPlansArePinned) {
  const loadbal::ChaosConfig cfg;
  EXPECT_EQ(
      runtime::fault_plan_to_json(loadbal::make_chaos_plan(cfg, 1)),
      R"({"seed": "2903691316201645484", "crashes": [{"rank": 3, "at_s": 0.11732404007735243}, {"rank": 3, "at_s": 0.11766026070797271}, {"rank": 1, "at_s": 0.0073756914371894567}], "stragglers": [], "links": [{"from": "any", "to": "any", "drop_prob": 0, "extra_delay_s": 0.0025513604374343083, "from_s": 0, "until_s": 0.048776329271331839}], "tokens": [], "pauses": [], "partitions": []})");
  EXPECT_EQ(
      runtime::fault_plan_to_json(loadbal::make_chaos_plan(cfg, 10)),
      R"({"seed": "3859734002883574538", "crashes": [{"rank": 1, "at_s": 0.056321296286701128}, {"rank": 1, "at_s": 0.022808852644908277}, {"rank": 2, "at_s": 0.11755077491594014}], "stragglers": [], "links": [{"from": "any", "to": "any", "drop_prob": 0, "extra_delay_s": 0.0021750294984766096, "from_s": 0, "until_s": 0.11331807770143827}], "tokens": [{"drop_prob": 0.48080636320623082, "from_s": 0, "until_s": 0.064608912972978619}], "pauses": [{"rank": 0, "from_s": 0.06173892148665272, "until_s": 0.40343304866783714}], "partitions": [{"ranks": [2], "from_s": 0.01051389913618578, "until_s": 0.042801332354620032}]})");
  EXPECT_EQ(
      runtime::fault_plan_to_json(loadbal::make_chaos_plan(cfg, 13)),
      R"({"seed": "8763129941917772234", "crashes": [{"rank": 0, "at_s": 0.037055041927231282}, {"rank": 0, "at_s": 0.04316909930641686}], "stragglers": [], "links": [{"from": "any", "to": "any", "drop_prob": 0.17542880057202892, "extra_delay_s": 0, "from_s": 0, "until_s": 0.061493248250340832}, {"from": "any", "to": "any", "drop_prob": 0, "extra_delay_s": 0.0020532271075361548, "from_s": 0, "until_s": 0.044165814839781492}], "tokens": [], "pauses": [{"rank": 1, "from_s": 0.08727006011471837, "until_s": 0.83778893955449563}], "partitions": [{"ranks": [1, 3], "from_s": 0.038433774847587129, "until_s": 0.079121497973865057}]})");
}

// A failure reproduces from the report alone: every run's "plan" in the
// soak report parses back to the generated plan, field for field.
TEST(ChaosPlan, ReportPlanParsesBackExactly) {
  const loadbal::ChaosConfig cfg;
  loadbal::ChaosSoakResult soak;
  for (std::uint32_t i = 0; i < cfg.schedules; ++i) {
    loadbal::ChaosScheduleResult s;
    s.index = i;
    s.schedule_seed = derive_seed(cfg.seed, i);
    s.plan = loadbal::make_chaos_plan(cfg, s.schedule_seed);
    soak.schedules.push_back(s);
  }
  const std::string path =
      "/tmp/pmpl_chaos_report_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(loadbal::write_chaos_report(soak, cfg, path));
  std::ifstream in(path);
  const std::string report((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ::unlink(path.c_str());

  // Each run's plan is the brace-balanced object after its "plan" key.
  const std::string key = "\"plan\": ";
  std::size_t at = report.find(key);
  for (const auto& s : soak.schedules) {
    ASSERT_NE(at, std::string::npos) << "run " << s.index;
    const std::size_t begin = at + key.size();
    std::size_t end = begin;
    int depth = 0;
    do {
      if (report[end] == '{') ++depth;
      if (report[end] == '}') --depth;
      ++end;
    } while (depth > 0 && end < report.size());
    runtime::FaultPlan parsed;
    std::string err;
    ASSERT_TRUE(runtime::parse_fault_plan(report.substr(begin, end - begin),
                                          parsed, err))
        << "run " << s.index << ": " << err;
    EXPECT_TRUE(parsed == s.plan) << "run " << s.index;
    at = report.find(key, end);
  }
  EXPECT_EQ(at, std::string::npos);
}

// --- the end-to-end restart gate ---------------------------------------

// Every rank SIGKILLed at least once, staggered, with the supervisor
// restarting each from its checkpoint: the union roadmap hash must be
// bit-identical to the fault-free DES run and no region may execute
// twice (asserted from the lineage executed lists / grant ledger).
TEST(RestartGate, EveryRankKilledOnceRejoinsAndMatchesDes) {
  const std::uint32_t p = 4, n = 64;
  const std::uint64_t seed = 4242;
  const auto work = loadbal::make_cluster_items(seed, n, p);

  loadbal::ClusterConfig cfg;
  cfg.ranks = p;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  cfg.rank.run_timeout_s = 8.0;
  cfg.timeout_s = 60.0;
  cfg.restart.enabled = true;
  cfg.faults.seed = 7;
  for (std::uint32_t r = 0; r < p; ++r)
    cfg.faults.crash(r, 0.03 + 0.03 * r);

  const auto real = loadbal::run_ws_cluster(cfg);
  ASSERT_TRUE(real.ok) << real.error;
  for (std::uint32_t r = 0; r < p; ++r) {
    EXPECT_TRUE(real.killed[r]) << "rank " << r << " kill never landed";
    EXPECT_GE(real.restarts[r], 1u) << "rank " << r;
    EXPECT_TRUE(real.reported[r]) << "rank " << r;
  }
  EXPECT_TRUE(real.terminated_all);
  EXPECT_TRUE(real.all_done);
  EXPECT_EQ(real.roadmap, des_hash(seed, work, p));
  EXPECT_EQ(duplicate_executions(real, n), 0u);
}

// A restarted incarnation resumes from its checkpoint rather than
// starting cold: the final incarnation reports restored state and its
// lineage executed list is consistent with the no-duplicate invariant.
TEST(RestartGate, ReplacementRestoresFromCheckpoint) {
  const std::uint32_t p = 3, n = 48;
  const std::uint64_t seed = 11;
  const auto work = loadbal::make_cluster_items(seed, n, p);

  loadbal::ClusterConfig cfg;
  cfg.ranks = p;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  cfg.rank.run_timeout_s = 8.0;
  cfg.timeout_s = 60.0;
  cfg.restart.enabled = true;
  cfg.faults.seed = 3;
  // Rank 0 starts with half the regions: kill it mid-run, once.
  cfg.faults.crash(0, 0.06);

  const auto real = loadbal::run_ws_cluster(cfg);
  ASSERT_TRUE(real.ok) << real.error;
  ASSERT_TRUE(real.killed[0]);
  ASSERT_TRUE(real.reported[0]);
  EXPECT_EQ(real.generations[0], 1u);
  EXPECT_EQ(real.ranks[0].generation, 1u);
  // 0.06s in, rank 0 has executed and checkpointed something (checkpoints
  // are written before every completion broadcast), so the replacement
  // restores rather than cold-starts.
  EXPECT_TRUE(real.ranks[0].restored);
  EXPECT_TRUE(real.terminated_all);
  EXPECT_TRUE(real.all_done);
  EXPECT_EQ(real.roadmap, des_hash(seed, work, p));
  EXPECT_EQ(duplicate_executions(real, n), 0u);
}

// --- zombie fencing ----------------------------------------------------

// The deliberate-zombie scenario: a rank is SIGSTOPped long enough that
// the supervisor suspects it (stalled checkpoint) and forks a replacement
// WITHOUT killing it. When the original resumes, its frames carry the old
// generation — every peer must reject them — and it must exit cleanly
// (fenced by a death notice naming it, or superseded by an epoch fence)
// without corrupting the directory.
TEST(ZombieFencing, ResumedStaleIncarnationIsNeutralized) {
  const std::uint32_t p = 3, n = 96;
  const std::uint64_t seed = 77;
  const auto work = loadbal::make_cluster_items(seed, n, p);

  loadbal::ClusterConfig cfg;
  cfg.ranks = p;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  // Stretch simulated time so the workload outlives the zombie window.
  cfg.rank.time_scale = 8.0;
  cfg.rank.run_timeout_s = 10.0;
  cfg.timeout_s = 90.0;
  cfg.restart.enabled = true;
  cfg.restart.suspect_after_s = 0.15;
  cfg.faults.seed = 5;
  // Freeze rank 2 (a thief) for ~1.3 wall seconds: long enough for the
  // suspect path to fork generation 1 while it is stopped.
  cfg.faults.pause(2, 0.025, 0.19);

  const auto real = loadbal::run_ws_cluster(cfg);
  ASSERT_TRUE(real.ok) << real.error;
  // The replacement was forked off the stalled checkpoint...
  EXPECT_GE(real.restarts[2], 1u);
  EXPECT_GE(real.generations[2], 1u);
  ASSERT_TRUE(real.reported[2]);
  EXPECT_GE(real.ranks[2].generation, 1u);
  // ...and the resumed original was neutralized — counted when it exits
  // cleanly (epoch-fenced or self-fenced on a death notice naming its
  // stale generation). Any frame it managed to emit first was rejected by
  // generation at the peers' engines or refused at their transports.
  std::uint64_t stale = 0;
  for (std::uint32_t r = 0; r < p; ++r)
    if (real.reported[r])
      stale += real.ranks[r].stale_frames_rejected +
               real.ranks[r].transport.frames_stale;
  EXPECT_TRUE(real.zombies_fenced >= 1 || stale > 0)
      << "zombie left no trace: fenced=" << real.zombies_fenced
      << " stale=" << stale;
  // The directory survived the zombie: complete, correct, no duplicates.
  EXPECT_TRUE(real.terminated_all);
  EXPECT_TRUE(real.all_done);
  EXPECT_EQ(real.roadmap, des_hash(seed, work, p));
  EXPECT_EQ(duplicate_executions(real, n), 0u);
}

// A rejoiner reviving into a mesh that already finished and exited: rank
// 1 is frozen almost immediately, so rank 0 death-notices it (~0.2s of
// missed heartbeats), reclaims its regions, completes all of them, and
// terminates as a ring of one — the whole mesh is gone well before the
// frozen original is SIGKILLed at t=2s. The replacement forked off that
// kill revives into a fully dead cluster: no kDirSync reply will ever
// come, so it must rebuild the finished state from the union of the dead
// peers' durable checkpoints (completions are checkpointed *before* their
// kRegionDone broadcast) rather than trust its own stale restore — which
// would re-execute regions rank 0 already did and break the
// zero-duplicate-execution guarantee. It then detects every peer dead,
// declares termination as a ring of one, and exits terminated.
TEST(RestartGate, RejoinIntoFinishedMeshStaysClean) {
  const std::uint32_t p = 2, n = 24;
  const std::uint64_t seed = 404;
  const auto work = loadbal::make_cluster_items(seed, n, p);

  loadbal::ClusterConfig cfg;
  cfg.ranks = p;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  cfg.rank.run_timeout_s = 8.0;
  cfg.timeout_s = 60.0;
  cfg.restart.enabled = true;
  cfg.faults.seed = 3;
  // Freeze rank 1 before it gets anywhere, and keep it frozen until the
  // planned SIGKILL — it never resumes, so the kill lands on the stopped
  // process and the replacement is the only live process in the cluster.
  cfg.faults.pause(1, 0.01, 30.0);
  cfg.faults.crash(1, 2.0);

  const auto real = loadbal::run_ws_cluster(cfg);
  ASSERT_TRUE(real.ok) << real.error;
  ASSERT_TRUE(real.killed[1]);
  EXPECT_GE(real.restarts[1], 1u);
  ASSERT_TRUE(real.reported[1]);
  EXPECT_GE(real.ranks[1].generation, 1u);
  // The replacement learned the finished state from the durable
  // checkpoints instead of re-executing its stale queue, and still
  // detected termination with every peer dead.
  EXPECT_TRUE(real.ranks[1].terminated);
  EXPECT_TRUE(real.terminated_all);
  EXPECT_TRUE(real.all_done);
  EXPECT_EQ(real.roadmap, des_hash(seed, work, p));
  EXPECT_EQ(duplicate_executions(real, n), 0u);
}

// --- mini chaos soak ---------------------------------------------------

// A scaled-down version of the CI chaos-soak job (which runs >= 20
// schedules): a handful of seeded randomized schedules must all hold the
// invariant suite, and the soak must leak nothing.
TEST(ChaosSoak, RandomSchedulesHoldInvariants) {
  loadbal::ChaosConfig cfg;
  cfg.seed = 0x50a1cULL;
  cfg.schedules = 3;
  cfg.ranks = 3;
  cfg.regions = 36;
  cfg.cluster_timeout_s = 45.0;
  const auto soak = loadbal::run_chaos_soak(cfg);
  for (const auto& s : soak.schedules)
    EXPECT_TRUE(s.ok) << "schedule " << s.index << " (seed "
                      << s.schedule_seed << "): " << s.error;
  EXPECT_TRUE(soak.no_leaks)
      << "fds " << soak.fds_before << "->" << soak.fds_after << ", tmp "
      << soak.tmp_before << "->" << soak.tmp_after;
  EXPECT_TRUE(soak.ok);
}

// --- no residue --------------------------------------------------------

// An interrupted or faulty run must not leak /tmp/pmpl_ws_* directories,
// sockets or result files; a SIGKILL-heavy restart run exercises every
// file type the harness creates (sockets, per-generation results,
// checkpoints).
TEST(Cleanup, FaultyRunsLeaveNoTmpResidue) {
  const std::size_t before = tmp_residue();
  const std::uint32_t p = 3, n = 32;
  const std::uint64_t seed = 9;
  const auto work = loadbal::make_cluster_items(seed, n, p);

  loadbal::ClusterConfig cfg;
  cfg.ranks = p;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  cfg.rank.run_timeout_s = 6.0;
  cfg.timeout_s = 60.0;
  cfg.restart.enabled = true;
  cfg.faults.seed = 2;
  cfg.faults.crash(1, 0.04);
  const auto real = loadbal::run_ws_cluster(cfg);
  EXPECT_TRUE(real.ok) << real.error;
  EXPECT_LE(tmp_residue(), before);
}

}  // namespace
}  // namespace pmpl
