// Cluster what-if tool: measure a parallel-PRM workload once, then explore
// how it schedules across machines, processor counts and load-balancing
// strategies — the library's DES replay used interactively.
//
//   $ cluster_simulation [--env med-cube|small-cube|free|walls|mixed]
//                        [--procs P] [--regions N] [--attempts N]
//                        [--machine hopper|opteron]
//
// Fault injection (all optional; any of them switches the run to a second,
// faulty pass so the fault-free baseline is always printed too):
//   --crashes N          crash N ranks (evenly spread) mid-run
//   --crash-frac F       crash F of the ranks instead of a fixed count
//   --straggle R         make R ranks stragglers (evenly spread)
//   --straggle-factor X  slowdown factor of each straggler (default 4)
//   --drop P             drop every message with probability P
//   --token-drop P       drop termination tokens with probability P
//   --fault-seed S       dedicated seed for the drop rolls
//   --faults FILE        JSON fault plan (runtime/fault_io.hpp format);
//                        validated up front — a malformed plan exits 2
//                        naming the offending field — and replaces the
//                        ad-hoc fault flags above
//
// Anytime execution (all optional):
//   --deadline-ms D      stop the workload measurement after D ms; the
//                        process reports how far it got and exits 3
//
// Observability (all optional):
//   --trace FILE         write a Chrome/Perfetto trace of the fault-free
//                        replays: one "phases" track per strategy plus one
//                        virtual-time track per simulated processor for the
//                        HybridWS replay (region spans, steal traffic)
//   --metrics FILE       write a flat metrics JSON snapshot (per-strategy
//                        DES counters, fault metrics, phase gauges)
//
// Prints the phase breakdown, load statistics and communication counters
// for every strategy at the chosen scale; with faults, adds recovery
// metrics and the makespan degradation vs the fault-free run. If any DES
// replay hits its event limit the run exits non-zero. A malformed flag or
// one this tool does not know exits 2 before any planning work. The
// threaded build is `quickstart --workers`; real forked ranks over sockets
// are `tools/ws_cluster`.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "core/prm_driver.hpp"
#include "env/builders.hpp"
#include "loadbal/partition.hpp"
#include "runtime/cancel.hpp"
#include "runtime/fault_io.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/trace.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pmpl;

namespace {

std::unique_ptr<env::Environment> make_env(const std::string& name) {
  if (name == "small-cube") return env::small_cube();
  if (name == "free") return env::free_env();
  if (name == "walls") return env::walls(false);
  if (name == "walls-45") return env::walls(true);
  if (name == "mixed") return env::mixed(0.60);
  return env::med_cube();
}

/// Victim ranks spread evenly across [0, p): rank i*p/n for i in [0, n).
std::vector<std::uint32_t> spread_ranks(std::uint32_t p, std::uint32_t n) {
  std::vector<std::uint32_t> out;
  n = std::min(n, p);
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * p) / std::max(1u, n)));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto e = make_env(args.get("env", "med-cube"));
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  const auto procs =
      static_cast<std::uint32_t>(args.get_i64("procs", 128, 1, kMaxU32));
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 8000, 1, kMaxU32));
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 1 << 17, 1));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  const auto cluster = args.get("machine", "hopper") == "opteron"
                           ? runtime::ClusterSpec::opteron_cluster()
                           : runtime::ClusterSpec::hopper();

  // Up-front validation of anything that would otherwise fail mid-run,
  // after minutes of real planning work: the fault-plan file and every
  // flag. A malformed plan exits 2 naming the offending field.
  runtime::FaultPlan file_plan;
  bool have_file_plan = false;
  if (const std::string faults_path = args.get("faults", "");
      !faults_path.empty()) {
    std::string err;
    if (!runtime::load_fault_plan(faults_path, file_plan, err)) {
      std::fprintf(stderr, "error: --faults: %s\n", err.c_str());
      return 2;
    }
    have_file_plan = true;
  }

  // Ad-hoc fault flags: crashes land relative to the fault-free makespan,
  // so the plan itself is built after the fault-free replays below.
  auto crashes =
      static_cast<std::uint32_t>(args.get_i64("crashes", 0, 0, kMaxU32));
  const double crash_frac = args.get_f64("crash-frac", 0.0, 0.0, 1.0);
  if (crash_frac > 0.0)
    crashes = std::max(crashes, static_cast<std::uint32_t>(
                                    crash_frac * static_cast<double>(procs)));
  const auto stragglers =
      static_cast<std::uint32_t>(args.get_i64("straggle", 0, 0, kMaxU32));
  const double straggle_factor = args.get_f64("straggle-factor", 4.0);
  const double drop = args.get_f64("drop", 0.0, 0.0, 1.0);
  const double token_drop = args.get_f64("token-drop", 0.0, 0.0, 1.0);
  const auto fault_seed = static_cast<std::uint64_t>(
      args.get_i64("fault-seed", 0xfa17ed5eedLL));

  // Anytime control: one token covers the workload measurement.
  const double deadline_ms = args.get_f64("deadline-ms", 0.0, 0.0);
  const runtime::CancelToken token(deadline_ms > 0.0
                                       ? runtime::Deadline::after_ms(deadline_ms)
                                       : runtime::Deadline::never());

  // Observability sinks. The tracer is passed into the fault-free replays;
  // per-rank virtual-time tracks are created only for the HybridWS replay
  // (one track per simulated processor adds up fast at p=1024).
  const std::string trace_path = args.get("trace", "");
  const std::string metrics_path = args.get("metrics", "");
  runtime::Tracer tracer;
  runtime::MetricsRegistry metrics;
  args.reject_unknown();

  std::printf("what-if: %s on %s, p=%u, %u regions, %zu attempts\n",
              e->name().c_str(), cluster.name.c_str(), procs, regions,
              attempts);
  const core::RegionGrid grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), regions, false);

  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = attempts;
  wcfg.seed = seed;
  wcfg.cancel = &token;
  const auto w = core::build_prm_workload(*e, grid, wcfg);
  if (w.measurement_cancelled) {
    std::fprintf(stderr,
                 "deadline: workload measurement stopped after %zu/%zu "
                 "regions; nothing to replay\n",
                 w.regions_measured, grid.size());
    return 3;
  }
  std::printf("measured workload: |V|=%zu |E|=%zu, total work %.1f sim-s\n\n",
              w.roadmap.num_vertices(), w.roadmap.num_edges(),
              w.total_sampling_s() + w.total_build_s() + w.total_edge_s());

  // Fault-free pass: run every strategy, remember its total for the
  // degradation column of an optional faulty pass. A DES replay that hits
  // its event limit produced a truncated schedule — the numbers would be
  // silently wrong, so it is surfaced and the run exits non-zero.
  bool des_event_limit = false;
  std::vector<double> fault_free_total;
  TextTable table({"strategy", "total", "sampling", "redistr.", "node conn",
                   "region conn", "CV after", "regions moved/stolen",
                   "remote roadmap"});
  const core::Strategy strategies[] = {
      core::Strategy::kNoLB, core::Strategy::kRepartition,
      core::Strategy::kHybridWS, core::Strategy::kRand8WS,
      core::Strategy::kDiffusiveWS};
  for (const auto s : strategies) {
    core::PrmRunConfig cfg;
    cfg.procs = procs;
    cfg.strategy = s;
    cfg.cluster = cluster;
    cfg.seed = seed;
    if (!trace_path.empty()) {
      cfg.tracer = &tracer;
      cfg.trace_prefix = core::to_string(s) + "/";
      // Rank-level detail for one representative work-stealing strategy.
      cfg.trace_ranks = s == core::Strategy::kHybridWS;
      cfg.trace_rank_capacity = 1 << 12;
    }
    const auto r = core::simulate_prm_run(w, cfg);
    if (!metrics_path.empty()) {
      const std::string prefix = core::to_string(s) + "/";
      metrics.set(prefix + "total_s", r.total_s);
      metrics.set(prefix + "sampling_s", r.phases.sampling_s);
      metrics.set(prefix + "redistribution_s", r.phases.redistribution_s);
      metrics.set(prefix + "node_connection_s", r.phases.node_connection_s);
      metrics.set(prefix + "region_connection_s",
                  r.phases.region_connection_s);
      metrics.set(prefix + "cv_nodes_after", r.cv_nodes_after);
      metrics.add(prefix + "remote_roadmap", r.remote_roadmap);
      if (core::is_work_stealing(s)) publish(metrics, r.ws, prefix);
    }
    if (r.ws.hit_event_limit) {
      std::fprintf(stderr,
                   "warning: %s hit the DES event limit — its replay is "
                   "truncated and its numbers untrustworthy\n",
                   core::to_string(s).c_str());
      des_event_limit = true;
    }
    fault_free_total.push_back(r.total_s);
    std::uint64_t moved = r.ws.regions_migrated;
    if (s == core::Strategy::kRepartition) {
      moved = 0;
      const auto naive = loadbal::partition_block(grid.size(), procs);
      for (std::size_t i = 0; i < naive.size(); ++i)
        if (naive[i] != r.assignment[i]) ++moved;
    }
    table.row()
        .cell(core::to_string(s))
        .num(r.total_s, 3)
        .num(r.phases.sampling_s, 3)
        .num(r.phases.redistribution_s, 3)
        .num(r.phases.node_connection_s, 3)
        .num(r.phases.region_connection_s, 3)
        .num(r.cv_nodes_after, 3)
        .num(moved)
        .num(r.remote_roadmap);
  }
  table.print();

  // Optional faulty pass.
  runtime::FaultPlan plan;
  plan.seed = fault_seed;
  // Crash victims halfway into the (fault-free NoLB) schedule so there is
  // both completed (durable) and pending (recoverable) work.
  const double mid = 0.5 * fault_free_total[0];
  for (const std::uint32_t r : spread_ranks(procs, crashes))
    plan.crash(r, mid);
  for (const std::uint32_t r : spread_ranks(procs, stragglers))
    if (std::find_if(plan.crashes.begin(), plan.crashes.end(),
                     [r](const auto& c) { return c.rank == r; }) ==
        plan.crashes.end())
      plan.straggler(r, straggle_factor, 0.0, fault_free_total[0]);
  if (drop > 0.0) plan.lossy_links(drop);
  if (token_drop > 0.0) plan.lose_tokens(token_drop);
  // A --faults file wholly replaces the ad-hoc flags above.
  if (have_file_plan) plan = file_plan;

  // Observability output covers the fault-free replays (the faulty pass
  // below re-runs the same strategies; tracing it too would double every
  // track). Write the files as soon as those replays are done.
  int observability_failed = 0;
  if (!trace_path.empty()) {
    if (runtime::export_chrome_trace(tracer, trace_path)) {
      std::printf("\ntrace: %s (%llu events, %llu dropped) — load in "
                  "https://ui.perfetto.dev\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(tracer.total_events()),
                  static_cast<unsigned long long>(tracer.total_dropped()));
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      observability_failed = 1;
    }
  }
  if (!metrics_path.empty()) {
    // Tracer health rides along in the snapshot: drop counts and per-track
    // high-water marks expose an undersized ring without opening the trace.
    if (!trace_path.empty()) runtime::publish_trace_metrics(metrics, tracer);
    std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
    if (mf) {
      const std::string j = metrics.to_json();
      std::fwrite(j.data(), 1, j.size(), mf);
      std::fputc('\n', mf);
      std::fclose(mf);
      std::printf("metrics: %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_path.c_str());
      observability_failed = 1;
    }
  }

  if (plan.empty()) {
    std::printf("\nload profile is in simulated seconds; the workload itself\n"
                "is real planning work measured once on this machine.\n");
    return (des_event_limit || observability_failed) ? 1 : 0;
  }

  if (have_file_plan)
    std::printf("\nfault plan (file): %zu crash(es), %zu straggler(s), "
                "%zu link fault(s), %zu token fault(s), seed=%llu\n",
                plan.crashes.size(), plan.stragglers.size(), plan.links.size(),
                plan.tokens.size(),
                static_cast<unsigned long long>(plan.seed));
  else
    std::printf("\nfault plan: %zu crash(es) at t=%.3f, %u straggler(s) "
                "x%.1f, drop=%.2f, token-drop=%.2f, seed=%llu\n",
                plan.crashes.size(), mid, stragglers, straggle_factor, drop,
                token_drop, static_cast<unsigned long long>(plan.seed));
  TextTable ftable({"strategy", "total", "degradation", "recovered", "re-exec",
                    "re-exec s", "retries", "retransmits", "tokens regen",
                    "recovery lat"});
  std::size_t idx = 0;
  for (const auto s : strategies) {
    core::PrmRunConfig cfg;
    cfg.procs = procs;
    cfg.strategy = s;
    cfg.cluster = cluster;
    cfg.seed = seed;
    cfg.faults = plan;
    const auto r = core::simulate_prm_run(w, cfg);
    if (r.ws.hit_event_limit) {
      std::fprintf(stderr, "FATAL: %s hit the DES event limit under faults\n",
                   core::to_string(s).c_str());
      return 1;
    }
    const double base = fault_free_total[idx++];
    ftable.row()
        .cell(core::to_string(s))
        .num(r.total_s, 3)
        .num(base > 0.0 ? r.total_s / base : 1.0, 3)
        .num(r.ws.faults.regions_recovered)
        .num(r.ws.faults.regions_reexecuted)
        .num(r.ws.faults.reexecuted_service_s, 3)
        .num(r.ws.faults.steal_retries)
        .num(r.ws.faults.grant_retransmits)
        .num(r.ws.faults.tokens_regenerated)
        .num(r.ws.faults.recovery_latency_max_s, 4);
  }
  ftable.print();
  std::printf("\nbulk-synchronous rows model stragglers only (no recovery\n"
              "protocol to simulate); work-stealing rows inject the full\n"
              "plan: crashes, lossy links and token loss.\n");
  return (des_event_limit || observability_failed) ? 1 : 0;
}
