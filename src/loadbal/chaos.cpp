#include "loadbal/chaos.hpp"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/fault_io.hpp"
#include "util/rng.hpp"

namespace pmpl::loadbal {

namespace {

// Chance per schedule of each fault kind beyond the kills.
constexpr double kPauseProb = 0.35;      ///< SIGSTOP window (wall seconds)
constexpr double kLossProb = 0.5;        ///< all-links drop sweep
constexpr double kDelayProb = 0.35;      ///< all-links extra delay
constexpr double kTokenLossProb = 0.35;
constexpr double kPartitionProb = 0.3;   ///< one partition window

/// Per-rank liveness backstop of every schedule's children.
constexpr double kChildRunTimeoutS = 4.0;

// Entries in /proc/self/fd (minus . and ..) — the parent's open-fd count.
// The readdir fd itself is open during the scan on both sides of a
// before/after comparison, so it cancels out.
std::size_t count_open_fds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return 0;
  std::size_t n = 0;
  while (dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
      continue;
    ++n;
  }
  ::closedir(d);
  return n;
}

// /tmp entries left behind by the cluster harness (pmpl_ws_* dirs).
std::size_t count_tmp_residue() {
  DIR* d = ::opendir("/tmp");
  if (!d) return 0;
  std::size_t n = 0;
  while (dirent* e = ::readdir(d)) {
    if (std::strncmp(e->d_name, "pmpl_ws_", 8) == 0) ++n;
  }
  ::closedir(d);
  return n;
}

}  // namespace

runtime::FaultPlan make_chaos_plan(const ChaosConfig& config,
                                   std::uint64_t schedule_seed) {
  runtime::FaultPlan plan;
  plan.seed = derive_seed(schedule_seed, 0xfa17u);
  Xoshiro256ss rng(derive_seed(schedule_seed, 0xc4a05u));

  // Kills. Each becomes a SIGKILL at a supervisor-restartable instant;
  // per-rank count stays below the restart budget (see kChaosRestart).
  std::vector<std::uint32_t> kills_per_rank(config.ranks, 0);
  const std::uint32_t n_kills =
      1 + static_cast<std::uint32_t>(rng.uniform_u64(kChaosMaxKills));
  for (std::uint32_t k = 0; k < n_kills; ++k) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_u64(config.ranks));
    if (kills_per_rank[r] >= kChaosMaxKillsPerRank) continue;
    ++kills_per_rank[r];
    plan.crash(r, rng.uniform(0.05, 1.0) * kChaosHorizonS);
  }

  // Pause window (the zombie precursor): wall-sized so that death
  // detection has time to fire while the rank is frozen. Never pause a
  // rank we also kill — SIGKILL on a stopped process still reaps, but the
  // overlap makes the schedule's intent ambiguous.
  if (rng.uniform() < kPauseProb) {
    std::uint32_t r = static_cast<std::uint32_t>(rng.uniform_u64(config.ranks));
    if (kills_per_rank[r] == 0) {
      const double from = rng.uniform(0.1, 0.9) * kChaosHorizonS;
      const double dur =
          rng.uniform(0.3, 0.8) / std::max(config.time_scale, 1e-9);
      plan.pause(r, from, from + dur);
    }
  }

  // Link-level noise: drops and delays over all links, bounded windows so
  // the run always gets a clean tail to finish in.
  if (rng.uniform() < kLossProb)
    plan.lossy_links(rng.uniform(0.05, 0.35), 0.0, 0.0,
                     rng.uniform(0.3, 1.0) * kChaosHorizonS);
  if (rng.uniform() < kDelayProb)
    plan.lossy_links(0.0, rng.uniform(0.5e-3, 3e-3), 0.0,
                     rng.uniform(0.3, 1.0) * kChaosHorizonS);
  if (rng.uniform() < kTokenLossProb)
    plan.lose_tokens(rng.uniform(0.2, 0.8), 0.0,
                     rng.uniform(0.3, 1.0) * kChaosHorizonS);

  // One partition window: a random nonempty strict subset on side A.
  if (config.ranks >= 2 && rng.uniform() < kPartitionProb) {
    std::vector<std::uint32_t> side;
    for (std::uint32_t r = 0; r < config.ranks; ++r)
      if (rng.uniform() < 0.5) side.push_back(r);
    if (!side.empty() && side.size() < config.ranks) {
      const double from = rng.uniform(0.0, 0.5) * kChaosHorizonS;
      plan.partition(std::move(side), from,
                     from + rng.uniform(0.2, 0.5) * kChaosHorizonS);
    }
  }
  return plan;
}

ChaosScheduleResult run_chaos_schedule(const ChaosConfig& config,
                                       std::uint32_t index) {
  ChaosScheduleResult out;
  out.index = index;
  out.schedule_seed = derive_seed(config.seed, index);
  out.plan = make_chaos_plan(config, out.schedule_seed);

  const std::uint32_t p = config.ranks;
  const auto work = make_cluster_items(out.schedule_seed, config.regions, p);

  // Expected completed set: the fault-free DES run of the same workload.
  // Under faults the protocol may migrate and recover differently, but the
  // *completed set* (and so the roadmap hash) is invariant.
  WsConfig wcfg;
  wcfg.seed = out.schedule_seed;
  wcfg.rand_k = 2;
  const auto des = simulate_work_stealing(work.items, work.initial, p, wcfg);
  out.expected_roadmap = roadmap_hash(out.schedule_seed, completed_set(des));

  ClusterConfig cc;
  cc.ranks = p;
  cc.rank.items = work.items;
  cc.rank.initial = work.initial;
  cc.rank.seed = out.schedule_seed;
  cc.rank.rand_k = 2;
  cc.rank.time_scale = config.time_scale;
  // Short liveness backstop: a replacement forked after the termination
  // wave has passed can find nobody to talk to and must wedge out fast.
  cc.rank.run_timeout_s = kChildRunTimeoutS;
  cc.faults = out.plan;
  cc.restart = kChaosRestart;
  cc.timeout_s = config.cluster_timeout_s;

  const auto res = run_ws_cluster(cc);

  out.harness_ok = res.ok;
  out.harness_error = res.error;
  out.terminated = res.terminated_all;
  out.all_done = res.all_done;
  out.roadmap = res.roadmap;
  out.hash_match = res.roadmap == out.expected_roadmap;
  out.zombies_fenced = res.zombies_fenced;
  for (std::uint32_t r : res.restarts) out.restarts_total += r;
  for (std::size_t r = 0; r < res.ranks.size(); ++r)
    if (r < res.reported.size() && res.reported[r])
      out.stale_frames_rejected += res.ranks[r].stale_frames_rejected;

  // No duplicated region execution across the final incarnations'
  // lineage-spanning executed lists. (A fenced zombie's post-resume work
  // never completes — it exits before finishing a region — so the final
  // incarnations' lists are the complete execution record.)
  std::vector<std::uint32_t> times(work.items.size(), 0);
  for (std::size_t r = 0; r < res.ranks.size(); ++r) {
    if (r < res.reported.size() && !res.reported[r]) continue;
    for (std::uint32_t item : res.ranks[r].executed)
      if (item < times.size()) ++times[item];
  }
  for (std::uint32_t t : times)
    if (t > 1) out.duplicates += t - 1;

  if (!out.harness_ok)
    out.error = "harness: " + out.harness_error;
  else if (!out.terminated)
    out.error = "termination not detected on every surviving rank";
  else if (!out.all_done)
    out.error = "union directory incomplete";
  else if (!out.hash_match)
    out.error = "roadmap hash mismatch vs fault-free DES";
  else if (out.duplicates != 0)
    out.error = "duplicated region execution";
  else
    out.ok = true;
  return out;
}

ChaosSoakResult run_chaos_soak(const ChaosConfig& config) {
  ChaosSoakResult soak;
  soak.fds_before = count_open_fds();
  soak.tmp_before = count_tmp_residue();

  for (std::uint32_t i = 0; i < config.schedules; ++i) {
    soak.schedules.push_back(run_chaos_schedule(config, i));
    soak.schedules.back().ok ? ++soak.passed : ++soak.failed;
  }

  soak.fds_after = count_open_fds();
  soak.tmp_after = count_tmp_residue();
  soak.no_leaks =
      soak.fds_after <= soak.fds_before && soak.tmp_after <= soak.tmp_before;
  soak.ok = soak.failed == 0 && soak.no_leaks;
  return soak;
}

bool write_chaos_report(const ChaosSoakResult& soak, const ChaosConfig& cfg,
                        const std::string& path) {
  std::string j;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n  \"seed\": %llu,\n  \"ranks\": %u,\n  \"regions\": %u,\n"
                "  \"schedules\": %u,\n  \"passed\": %u,\n  \"failed\": %u,\n",
                static_cast<unsigned long long>(cfg.seed), cfg.ranks,
                cfg.regions, cfg.schedules, soak.passed, soak.failed);
  j += buf;
  std::snprintf(buf, sizeof buf,
                "  \"no_leaks\": %s,\n  \"fds_before\": %zu,\n"
                "  \"fds_after\": %zu,\n  \"tmp_before\": %zu,\n"
                "  \"tmp_after\": %zu,\n  \"ok\": %s,\n  \"runs\": [\n",
                soak.no_leaks ? "true" : "false", soak.fds_before,
                soak.fds_after, soak.tmp_before, soak.tmp_after,
                soak.ok ? "true" : "false");
  j += buf;
  for (std::size_t i = 0; i < soak.schedules.size(); ++i) {
    const auto& s = soak.schedules[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"index\": %u, \"schedule_seed\": %llu, \"ok\": %s,\n"
                  "     \"terminated\": %s, \"all_done\": %s, "
                  "\"hash_match\": %s,\n",
                  s.index, static_cast<unsigned long long>(s.schedule_seed),
                  s.ok ? "true" : "false", s.terminated ? "true" : "false",
                  s.all_done ? "true" : "false",
                  s.hash_match ? "true" : "false");
    j += buf;
    std::snprintf(
        buf, sizeof buf,
        "     \"duplicates\": %llu, \"restarts\": %u, "
        "\"zombies_fenced\": %llu, \"stale_frames_rejected\": %llu,\n",
        static_cast<unsigned long long>(s.duplicates), s.restarts_total,
        static_cast<unsigned long long>(s.zombies_fenced),
        static_cast<unsigned long long>(s.stale_frames_rejected));
    j += buf;
    std::snprintf(buf, sizeof buf,
                  "     \"roadmap\": \"%016llx\", \"expected\": \"%016llx\",\n",
                  static_cast<unsigned long long>(s.roadmap),
                  static_cast<unsigned long long>(s.expected_roadmap));
    j += buf;
    j += "     \"error\": \"" + s.error + "\",\n     \"plan\": ";
    j += runtime::fault_plan_to_json(s.plan);
    j += i + 1 < soak.schedules.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pmpl::loadbal
