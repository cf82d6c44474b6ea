// ws_cluster: run the work-stealing protocol on real forked processes
// over Unix-domain sockets, optionally injecting a fault plan (parent
// SIGKILLs crash victims; link/token faults ride inside each rank's
// transport), then hold the run to the sim-vs-real gate: the same seed
// and plan replayed through the DES must produce the identical roadmap
// hash (DESIGN.md §5h).
//
//   $ ws_cluster [--ranks P] [--regions N] [--seed S]
//                [--policy hybrid|rand|diffusive|lifeline] [--rand-k K]
//                [--steal-max M]
//                [--faults plan.json]   fault plan (simulated seconds)
//                [--time-scale K]       wall seconds per simulated second
//                [--trace PREFIX]       per-incarnation traces
//                                       PREFIX.r<r>.g<gen>.json (plus
//                                       supervisor-salvaged fragments of
//                                       ranks that died tracing)
//                [--report FILE]        JSON summary of both runs + gate
//                [--timeout S]          parent watchdog (default 90)
//                [--no-gate]            skip the DES replay / comparison
//                [--restart]            supervisor re-forks dead ranks
//                [--max-restarts N]     restart budget per rank (default 3)
//                [--suspect-after S]    stalled-checkpoint replacement (zombie
//                                       scenario); 0 disables (default)
//
// Chaos-soak mode (rejects the workload/fault flags above):
//   $ ws_cluster --chaos N [--chaos-seed S] [--chaos-out FILE]
//                [--ranks P] [--regions N] [--time-scale K]
// runs N seeded randomized kill/pause/loss/partition schedules under the
// restart supervisor and asserts the invariant suite (DESIGN.md §5i),
// writing the per-schedule report to --chaos-out.
//
// Exit codes: 0 gate passed (or --no-gate and the cluster ran clean),
// 1 gate or protocol failure, 2 bad usage (including an unknown flag) or
// a malformed fault plan (the error names the offending field).

#include <cstdio>
#include <string>

#include "loadbal/chaos.hpp"
#include "loadbal/ws_cluster.hpp"
#include "runtime/fault_io.hpp"
#include "util/args.hpp"

using namespace pmpl;

namespace {

bool parse_policy(const std::string& s, loadbal::StealPolicyKind& out) {
  if (s == "hybrid") out = loadbal::StealPolicyKind::kHybrid;
  else if (s == "rand") out = loadbal::StealPolicyKind::kRandK;
  else if (s == "diffusive") out = loadbal::StealPolicyKind::kDiffusive;
  else if (s == "lifeline") out = loadbal::StealPolicyKind::kLifeline;
  else return false;
  return true;
}

void print_rank_table(const loadbal::ClusterResult& c) {
  std::printf("%-5s %-6s %-6s %5s %6s %6s %6s %7s %7s %6s %6s\n", "rank",
              "state", "exit", "local", "stolen", "reqs", "grants",
              "retrans", "recov", "deaths", "drops");
  for (std::size_t r = 0; r < c.ranks.size(); ++r) {
    // A killed rank that still reported was resurrected by the supervisor
    // (its final incarnation terminated normally).
    const char* state = c.killed[r] && !c.reported[r] ? "KILLED"
                        : !c.reported[r]              ? "LOST"
                        : c.killed[r] && c.ranks[r].terminated ? "resur"
                        : c.ranks[r].fenced                    ? "FENCED"
                        : c.ranks[r].terminated                ? "done"
                                                               : "WEDGED";
    if (!c.reported[r]) {
      std::printf("%-5zu %-6s %-6d\n", r, state, c.exit_codes[r]);
      continue;
    }
    const auto& k = c.ranks[r];
    std::printf("%-5zu %-6s %-6d %5llu %6llu %6llu %6llu %7llu %7llu "
                "%6llu %6llu\n",
                r, state, c.exit_codes[r],
                static_cast<unsigned long long>(k.local_tasks),
                static_cast<unsigned long long>(k.stolen_tasks),
                static_cast<unsigned long long>(k.steal_requests),
                static_cast<unsigned long long>(k.steal_grants),
                static_cast<unsigned long long>(k.grant_retransmits),
                static_cast<unsigned long long>(k.regions_recovered),
                static_cast<unsigned long long>(k.deaths_detected),
                static_cast<unsigned long long>(k.transport.frames_dropped));
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto ranks =
      static_cast<std::uint32_t>(args.get_i64("ranks", 4, 1, 64));
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 96, 1, 1 << 20));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 42));
  const double time_scale = args.get_f64("time-scale", 1.0, 1e-6);

  const auto chaos_n =
      static_cast<std::uint32_t>(args.get_i64("chaos", 0, 0, 100000));
  if (chaos_n > 0) {
    loadbal::ChaosConfig ccfg;
    ccfg.schedules = chaos_n;
    ccfg.seed = static_cast<std::uint64_t>(
        args.get_i64("chaos-seed", static_cast<std::int64_t>(ccfg.seed)));
    ccfg.ranks = ranks;
    ccfg.regions = static_cast<std::uint32_t>(
        args.get_i64("regions", static_cast<std::int64_t>(ccfg.regions)));
    ccfg.time_scale = time_scale;
    const std::string out = args.get("chaos-out", "");
    args.reject_unknown();
    std::printf("chaos soak: %u schedules, %u ranks x %u regions, seed %llu\n",
                ccfg.schedules, ccfg.ranks, ccfg.regions,
                static_cast<unsigned long long>(ccfg.seed));
    const auto soak = loadbal::run_chaos_soak(ccfg);
    for (const auto& s : soak.schedules)
      std::printf("  schedule %2u seed %016llx: %s%s%s (restarts=%u "
                  "zombies=%llu stale=%llu)\n",
                  s.index, static_cast<unsigned long long>(s.schedule_seed),
                  s.ok ? "ok" : "FAIL", s.ok ? "" : " — ", s.error.c_str(),
                  s.restarts_total,
                  static_cast<unsigned long long>(s.zombies_fenced),
                  static_cast<unsigned long long>(s.stale_frames_rejected));
    std::printf("chaos soak: %u/%u passed, leaks: %s (fds %zu->%zu, "
                "tmp %zu->%zu)\n",
                soak.passed, soak.passed + soak.failed,
                soak.no_leaks ? "none" : "LEAKED", soak.fds_before,
                soak.fds_after, soak.tmp_before, soak.tmp_after);
    if (!out.empty()) {
      if (!loadbal::write_chaos_report(soak, ccfg, out)) {
        std::fprintf(stderr, "error: cannot write report to %s\n",
                     out.c_str());
        return 2;
      }
      std::printf("report: %s\n", out.c_str());
    }
    return soak.ok ? 0 : 1;
  }
  const std::string report_path = args.get("report", "");
  const bool run_gate = !args.get_bool("no-gate", false);

  loadbal::StealPolicyKind policy = loadbal::StealPolicyKind::kHybrid;
  if (!parse_policy(args.get("policy", "hybrid"), policy)) {
    std::fprintf(stderr, "error: --policy: unknown policy '%s'\n",
                 args.get("policy", "").c_str());
    return 2;
  }

  runtime::FaultPlan plan;
  const std::string plan_path = args.get("faults", "");
  if (!plan_path.empty()) {
    std::string err;
    if (!runtime::load_fault_plan(plan_path, plan, err)) {
      std::fprintf(stderr, "error: --faults: %s\n", err.c_str());
      return 2;
    }
  }

  const auto work = loadbal::make_cluster_items(seed, regions, ranks);

  loadbal::ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.faults = plan;
  cfg.trace_path = args.get("trace", "");
  cfg.timeout_s = args.get_f64("timeout", 90.0, 1.0);
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.policy = policy;
  cfg.rank.rand_k =
      static_cast<std::uint32_t>(args.get_i64("rand-k", 2, 1, 64));
  cfg.rank.steal_max_items =
      static_cast<std::uint32_t>(args.get_i64("steal-max", 1, 1, 1 << 16));
  cfg.rank.seed = seed;
  cfg.rank.time_scale = time_scale;
  cfg.restart.enabled = args.get_bool("restart", false);
  cfg.restart.max_restarts =
      static_cast<std::uint32_t>(args.get_i64("max-restarts", 3, 0, 1000));
  cfg.restart.suspect_after_s = args.get_f64("suspect-after", 0.0, 0.0);
  args.reject_unknown();

  std::printf("ws_cluster: %u ranks x %u regions, seed %llu, policy %s%s\n",
              ranks, regions, static_cast<unsigned long long>(seed),
              args.get("policy", "hybrid").c_str(),
              plan.empty() ? "" : ", faults injected");
  const auto real = loadbal::run_ws_cluster(cfg);
  if (!real.ok)
    std::fprintf(stderr, "harness error: %s\n", real.error.c_str());
  print_rank_table(real);
  std::printf("cluster: terminated=%s all_done=%s recovered=%llu "
              "roadmap=%016llx\n",
              real.terminated_all ? "yes" : "NO",
              real.all_done ? "yes" : "NO",
              static_cast<unsigned long long>(real.regions_recovered),
              static_cast<unsigned long long>(real.roadmap));
  if (cfg.restart.enabled) {
    std::uint32_t restarts = 0;
    for (std::uint32_t r : real.restarts) restarts += r;
    std::printf("supervisor: restarts=%u zombies_fenced=%llu\n", restarts,
                static_cast<unsigned long long>(real.zombies_fenced));
  }
  for (const std::string& p : real.traces_salvaged)
    std::printf("salvaged: %s\n", p.c_str());

  bool gate_ok = true;
  std::uint64_t des_hash = 0;
  loadbal::WsResult des;
  if (run_gate) {
    loadbal::WsConfig wcfg;
    wcfg.policy = policy;
    wcfg.rand_k = cfg.rank.rand_k;
    wcfg.seed = seed;
    wcfg.steal_max_items = cfg.rank.steal_max_items;
    wcfg.faults = plan;
    des = loadbal::simulate_work_stealing(work.items, work.initial, ranks,
                                          wcfg);
    des_hash = loadbal::roadmap_hash(seed, loadbal::completed_set(des));
    gate_ok = des_hash == real.roadmap && real.terminated_all && real.ok;
    std::printf("gate: des=%016llx real=%016llx -> %s\n",
                static_cast<unsigned long long>(des_hash),
                static_cast<unsigned long long>(real.roadmap),
                gate_ok ? "MATCH" : "MISMATCH");
  }

  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write report to %s\n",
                   report_path.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"ranks\": %u,\n  \"regions\": %u,\n"
                 "  \"seed\": %llu,\n  \"time_scale\": %.17g,\n"
                 "  \"fault_plan\": %s,\n",
                 ranks, regions, static_cast<unsigned long long>(seed),
                 time_scale, runtime::fault_plan_to_json(plan).c_str());
    std::fprintf(f,
                 "  \"real\": {\"terminated_all\": %s, \"all_done\": %s, "
                 "\"roadmap\": \"%016llx\", \"steal_grants\": %llu, "
                 "\"regions_recovered\": %llu, \"grant_retransmits\": %llu, "
                 "\"deaths_detected\": %llu},\n",
                 real.terminated_all ? "true" : "false",
                 real.all_done ? "true" : "false",
                 static_cast<unsigned long long>(real.roadmap),
                 static_cast<unsigned long long>(real.steal_grants),
                 static_cast<unsigned long long>(real.regions_recovered),
                 static_cast<unsigned long long>(real.grant_retransmits),
                 static_cast<unsigned long long>(real.deaths_detected));
    if (run_gate)
      std::fprintf(f,
                   "  \"des\": {\"terminated\": %s, \"roadmap\": "
                   "\"%016llx\", \"steal_grants\": %llu},\n"
                   "  \"gate\": %s\n}\n",
                   des.terminated ? "true" : "false",
                   static_cast<unsigned long long>(des_hash),
                   static_cast<unsigned long long>(des.steal_grants),
                   gate_ok ? "true" : "false");
    else
      std::fprintf(f, "  \"gate\": null\n}\n");
    std::fclose(f);
    std::printf("report: %s\n", report_path.c_str());
  }

  if (!real.ok) return 1;
  if (run_gate && !gate_ok) return 1;
  if (!run_gate && (!real.terminated_all || !real.all_done)) return 1;
  return 0;
}
