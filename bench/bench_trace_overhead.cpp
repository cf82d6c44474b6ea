// Tracing overhead bench: the same shared-memory parallel PRM build run
// untraced and traced, best-of-N wall time each way. The instrumentation
// budget for the tracing layer is <= 3% slowdown with rings attached
// (DESIGN.md §5e); this harness measures it and records the verdict in
// BENCH_trace.json (path overridable as argv[1]).
//
// The two builds must also produce identical roadmaps — tracing draws no
// randomness and never changes control flow — so the bench doubles as an
// end-to-end check of the "disabled means absent / enabled means inert"
// contract on real planner work. A roadmap mismatch is a hard failure;
// the overhead number is recorded but not gated here (wall-clock noise on
// shared CI boxes is larger than the effect — the JSON is the record).
//
// A second section measures the distributed path: the same fault-free
// socket cluster run with and without --trace (frame flows, clock sync,
// protocol flows, flight-recorder writes all active when tracing). The
// cluster overhead budget is the same <= 3%, recorded as
// cluster_overhead_frac / cluster_within_threshold, and traced vs
// untraced roadmap hashes must match exactly.

#include <algorithm>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "core/parallel_build.hpp"
#include "env/builders.hpp"
#include "loadbal/ws_cluster.hpp"
#include "runtime/trace.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace pmpl;

namespace {

struct BuildOutcome {
  double wall_s = 0.0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

BuildOutcome run_build(const env::Environment& e, const core::RegionGrid& grid,
                       std::size_t attempts, std::uint32_t workers,
                       std::uint64_t seed, bool traced) {
  runtime::Tracer tracer;
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = attempts;
  cfg.seed = seed;
  cfg.workers = workers;
  if (traced) cfg.tracer = &tracer;
  WallTimer t;
  const auto built = core::parallel_build_prm(e, grid, cfg);
  BuildOutcome out;
  out.wall_s = t.elapsed_s();
  out.vertices = built.roadmap.num_vertices();
  out.edges = built.roadmap.num_edges();
  out.events = tracer.total_events();
  out.dropped = tracer.total_dropped();
  return out;
}

struct ClusterOutcome {
  bool ok = false;
  double wall_s = 0.0;  // slowest rank's finish time, not harness wall
  std::uint64_t roadmap = 0;
};

ClusterOutcome run_cluster(const loadbal::ClusterItems& work,
                           std::uint32_t ranks, std::uint64_t seed,
                           const std::string& trace_prefix) {
  loadbal::ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.rank.items = work.items;
  cfg.rank.initial = work.initial;
  cfg.rank.seed = seed;
  cfg.trace_path = trace_prefix;
  cfg.timeout_s = 60.0;
  const auto real = loadbal::run_ws_cluster(cfg);
  ClusterOutcome out;
  out.ok = real.ok && real.terminated_all && real.all_done;
  out.roadmap = real.roadmap;
  // Per-rank finish time isolates protocol+tracing cost from fork/join
  // harness noise.
  for (std::uint32_t r = 0; r < ranks; ++r)
    if (real.reported[r] && real.ranks[r].finish_s > out.wall_s)
      out.wall_s = real.ranks[r].finish_s;
  if (!trace_prefix.empty())
    for (std::uint32_t r = 0; r < ranks; ++r)
      ::unlink((trace_prefix + ".r" + std::to_string(r) + ".g0.json").c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional argv[1] (when not a flag) overrides the output path; flags
  // are parsed from the full argv (the parser skips positionals).
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_trace.json";
  ArgParser args(argc, argv);
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 20000, 1));
  const auto workers =
      static_cast<std::uint32_t>(args.get_i64("workers", 4, 1, 256));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 7));
  constexpr int kReps = 3;
  constexpr double kThreshold = 0.03;

  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 64, false);

  std::printf("# trace overhead: %zu attempts, %u workers, best of %d\n",
              attempts, workers, kReps);
  BuildOutcome untraced, traced;
  untraced.wall_s = traced.wall_s = 1e100;
  // Interleave the modes so drift (thermal, other tenants) hits both.
  for (int rep = 0; rep < kReps; ++rep) {
    const auto u = run_build(*e, grid, attempts, workers, seed, false);
    const auto t = run_build(*e, grid, attempts, workers, seed, true);
    std::printf("rep %d: untraced %.4fs, traced %.4fs (%llu events, "
                "%llu dropped)\n",
                rep, u.wall_s, t.wall_s,
                static_cast<unsigned long long>(t.events),
                static_cast<unsigned long long>(t.dropped));
    if (u.vertices != t.vertices || u.edges != t.edges) {
      std::fprintf(stderr,
                   "FAIL: traced build differs (|V| %zu vs %zu, |E| %zu vs "
                   "%zu) — tracing must not perturb the roadmap\n",
                   u.vertices, t.vertices, u.edges, t.edges);
      return 1;
    }
    if (u.wall_s < untraced.wall_s) untraced = u;
    if (t.wall_s < traced.wall_s) traced = t;
  }

  const double overhead =
      untraced.wall_s > 0.0 ? traced.wall_s / untraced.wall_s - 1.0 : 0.0;
  std::printf("best: untraced %.4fs, traced %.4fs -> overhead %+.2f%% "
              "(budget %.0f%%)\n",
              untraced.wall_s, traced.wall_s, 100.0 * overhead,
              100.0 * kThreshold);

  // Distributed section: the socket cluster with the full tracing stack
  // (frame flows, clock sync, flight recorder) vs tracing off.
  const auto cluster_ranks =
      static_cast<std::uint32_t>(args.get_i64("cluster-ranks", 4, 2, 16));
  const auto cluster_regions = static_cast<std::uint32_t>(
      args.get_i64("cluster-regions", 64, 1, 1 << 20));
  const auto cluster_work =
      loadbal::make_cluster_items(seed, cluster_regions, cluster_ranks);
  const std::string trace_prefix =
      "/tmp/bench_trace_overhead." + std::to_string(::getpid());
  std::printf("# cluster overhead: %u ranks x %u regions, best of %d\n",
              cluster_ranks, cluster_regions, kReps);
  ClusterOutcome cu, ct;
  cu.wall_s = ct.wall_s = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto u = run_cluster(cluster_work, cluster_ranks, seed, "");
    const auto t = run_cluster(cluster_work, cluster_ranks, seed,
                               trace_prefix);
    std::printf("rep %d: untraced %.4fs, traced %.4fs\n", rep, u.wall_s,
                t.wall_s);
    if (!u.ok || !t.ok) {
      std::fprintf(stderr, "FAIL: cluster run did not terminate cleanly\n");
      return 1;
    }
    if (u.roadmap != t.roadmap) {
      std::fprintf(stderr,
                   "FAIL: traced cluster roadmap %016llx differs from "
                   "untraced %016llx — tracing must not perturb the run\n",
                   static_cast<unsigned long long>(t.roadmap),
                   static_cast<unsigned long long>(u.roadmap));
      return 1;
    }
    if (u.wall_s < cu.wall_s) cu = u;
    if (t.wall_s < ct.wall_s) ct = t;
  }
  const double cluster_overhead =
      cu.wall_s > 0.0 ? ct.wall_s / cu.wall_s - 1.0 : 0.0;
  std::printf("best: untraced %.4fs, traced %.4fs -> overhead %+.2f%% "
              "(budget %.0f%%)\n",
              cu.wall_s, ct.wall_s, 100.0 * cluster_overhead,
              100.0 * kThreshold);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"trace_overhead\",\n"
               "  \"attempts\": %zu,\n  \"workers\": %u,\n  \"reps\": %d,\n"
               "  \"untraced_wall_s\": %.6f,\n  \"traced_wall_s\": %.6f,\n"
               "  \"overhead_frac\": %.6f,\n  \"threshold_frac\": %.2f,\n"
               "  \"within_threshold\": %s,\n"
               "  \"trace_events\": %llu,\n  \"trace_dropped\": %llu,\n"
               "  \"roadmap_vertices\": %zu,\n  \"roadmap_edges\": %zu,\n"
               "  \"cluster_ranks\": %u,\n  \"cluster_regions\": %u,\n"
               "  \"cluster_untraced_wall_s\": %.6f,\n"
               "  \"cluster_traced_wall_s\": %.6f,\n"
               "  \"cluster_overhead_frac\": %.6f,\n"
               "  \"cluster_within_threshold\": %s,\n"
               "  \"cluster_roadmap\": \"%016llx\"\n}\n",
               attempts, workers, kReps, untraced.wall_s, traced.wall_s,
               overhead, kThreshold, overhead <= kThreshold ? "true" : "false",
               static_cast<unsigned long long>(traced.events),
               static_cast<unsigned long long>(traced.dropped),
               traced.vertices, traced.edges, cluster_ranks, cluster_regions,
               cu.wall_s, ct.wall_s, cluster_overhead,
               cluster_overhead <= kThreshold ? "true" : "false",
               static_cast<unsigned long long>(ct.roadmap));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
