// Quickstart: build a probabilistic roadmap for a rigid-body robot in the
// med-cube environment and answer a motion-planning query.
//
//   $ quickstart [--attempts N] [--seed S]
//
// Anytime/parallel mode (any of these flags switches to the shared-memory
// parallel builder):
//   --workers W       build with W threads over a region grid
//   --deadline-ms D   stop building after D ms and answer from whatever
//                     roadmap exists by then (graceful degradation)
//   --checkpoint FILE snapshot completed regions to FILE as the build runs
//   --resume          restore completed regions from FILE first; a resumed
//                     build finishes bit-identically to an uninterrupted one
//   --trace FILE      write a Chrome/Perfetto trace of the build (one track
//                     per worker thread: region > sample/connect spans)
//   --metrics FILE    write a flat metrics JSON snapshot (worker stats,
//                     planner work counts)
//
// --trace and --metrics imply the parallel builder (there is nothing to
// put on a per-worker track in the sequential path).
//
// Planner selection:
//   --planner prm|rrtc  PRM (default) or bidirectional RRT-Connect
//   --width W           RRT-Connect wavefront width (targets per batch;
//                       1 = classic single-sample, wider keeps the SIMD
//                       validity lanes full)
//
// This is the smallest end-to-end use of the library: environment builder,
// PRM (sequential or anytime-parallel) or RRT-Connect, and query/path
// extraction.

#include <cstdio>

#include "core/parallel_build.hpp"
#include "core/profile.hpp"
#include "env/builders.hpp"
#include "loadbal/metrics.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "planner/rrt_connect.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/trace.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 3000, 1));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 17));
  const double deadline_ms = args.get_f64("deadline-ms", 0.0, 0.0);
  const std::string checkpoint_path = args.get("checkpoint", "");
  const bool resume = args.get_bool("resume", false);
  const std::string trace_path = args.get("trace", "");
  const std::string metrics_path = args.get("metrics", "");
  const bool anytime = args.has("workers") || deadline_ms > 0.0 ||
                       !checkpoint_path.empty() || resume ||
                       !trace_path.empty() || !metrics_path.empty();
  const auto workers =
      static_cast<std::uint32_t>(args.get_i64("workers", 4, 1, 256));
  const bool rrtc = args.get("planner", "prm") == "rrtc";
  const auto width = static_cast<std::size_t>(args.get_i64("width", 4, 1, 32));
  args.reject_unknown();

  // 1. An environment: a 100^3 workspace with a central cube obstacle and
  //    a box-shaped rigid-body robot (6-DOF SE(3) planning).
  const auto e = env::med_cube();
  std::printf("environment: %s (%.0f%% of the workspace blocked)\n",
              e->name().c_str(), 100.0 * e->blocked_fraction());

  // Bidirectional RRT-Connect path: grow start and goal trees toward each
  // other with wavefront-batched extension, no roadmap construction.
  if (rrtc) {
    planner::RrtConnectParams rc;
    rc.max_nodes = attempts;
    rc.batch_width = width;
    planner::RrtConnect rrtc(*e, rc);
    Xoshiro256ss qrng(seed + 1);
    const auto start = e->space().at_position({8, 8, 8}, qrng);
    const auto goal = e->space().at_position({92, 92, 92}, qrng);
    WallTimer rrtc_timer;
    const auto path = rrtc.plan(start, goal, seed);
    std::printf("rrt-connect: %zu tree nodes, wave width %zu (%.2fs)\n",
                rrtc.tree().num_vertices(), rc.batch_width,
                rrtc_timer.elapsed_s());
    const auto& st = rrtc.stats();
    std::printf("planner work: %llu collision queries, %llu local plans, "
                "%llu extends\n",
                static_cast<unsigned long long>(st.cd.queries),
                static_cast<unsigned long long>(st.lp_attempts),
                static_cast<unsigned long long>(st.rrt_extends));
    if (!path) {
      std::printf("no path found — increase --attempts\n");
      return 1;
    }
    std::printf("path found: %zu waypoints, metric length %.1f\n",
                path->size(), planner::path_length(*e, *path));
    std::printf("path valid: %s\n",
                planner::path_valid(*e, *path, 1.0) ? "yes" : "NO");
    return 0;
  }

  // 2. Build the roadmap.
  planner::PrmParams params;
  params.k_neighbors = 8;
  planner::Roadmap roadmap;
  planner::PlannerStats stats;
  runtime::Tracer tracer;
  WallTimer timer;
  if (anytime) {
    const runtime::CancelToken token(
        deadline_ms > 0.0 ? runtime::Deadline::after_ms(deadline_ms)
                          : runtime::Deadline::never());
    const core::RegionGrid grid =
        core::RegionGrid::make_auto(e->space().position_bounds(), 64, false);
    core::ParallelPrmConfig cfg;
    cfg.total_attempts = attempts;
    cfg.prm = params;
    cfg.seed = seed;
    cfg.workers = workers;
    cfg.anytime.cancel = &token;
    cfg.anytime.checkpoint_path = checkpoint_path;
    cfg.anytime.checkpoint_every = 8;
    cfg.anytime.resume = resume;
    if (!trace_path.empty()) cfg.tracer = &tracer;
    auto built = core::parallel_build_prm(*e, grid, cfg);
    const auto& d = built.degradation;
    std::printf("anytime build: %zu/%zu regions done (%zu restored from "
                "checkpoint), %zu components%s%s\n",
                d.regions_completed, d.regions_total, d.regions_restored,
                d.connected_components, d.cancelled ? ", DEADLINE HIT" : "",
                d.checkpoint_written ? ", checkpoint written" : "");
    if (resume && d.resume_status != IoStatus::kOk)
      std::fprintf(stderr, "warning: resume: %s — built from scratch\n",
                   to_string(d.resume_status));
    roadmap = std::move(built.roadmap);
    stats = built.stats;

    // Workers are joined, so the trace buffers are quiescent.
    if (!trace_path.empty()) {
      if (runtime::export_chrome_trace(tracer, trace_path))
        std::printf("trace: %s (%llu events, %llu dropped) — load in "
                    "https://ui.perfetto.dev\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(tracer.total_events()),
                    static_cast<unsigned long long>(tracer.total_dropped()));
      else
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      runtime::MetricsRegistry reg;
      publish(reg, built.workers, "workers/");
      publish(reg, core::to_work_counts(stats), "work/");
      reg.set("build_wall_s", built.build_wall_s);
      reg.set("connect_wall_s", built.connect_wall_s);
      std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
      if (mf) {
        const std::string j = reg.to_json();
        std::fwrite(j.data(), 1, j.size(), mf);
        std::fputc('\n', mf);
        std::fclose(mf);
        std::printf("metrics: %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     metrics_path.c_str());
      }
    }
  } else {
    planner::Prm prm(*e, params);
    prm.build(attempts, seed);
    roadmap = std::move(prm.roadmap());
    stats = prm.stats();
  }
  std::printf("roadmap: %zu vertices, %zu edges (built in %.2fs)\n",
              roadmap.num_vertices(), roadmap.num_edges(),
              timer.elapsed_s());
  std::printf("planner work: %llu collision queries, %llu local plans\n",
              static_cast<unsigned long long>(stats.cd.queries),
              static_cast<unsigned long long>(stats.lp_attempts));

  // 3. Query: from one corner of the workspace to the opposite one — the
  //    straight line passes through the obstacle, so the path must detour.
  //    After a deadline-cut build this still works on whatever roadmap
  //    exists; a sparse partial roadmap simply may not reach.
  Xoshiro256ss rng(seed + 1);
  const auto start = e->space().at_position({8, 8, 8}, rng);
  const auto goal = e->space().at_position({92, 92, 92}, rng);
  const auto path = planner::query_roadmap(*e, roadmap, start, goal,
                                           params.k_neighbors,
                                           params.resolution);
  if (!path) {
    std::printf("no path found — increase --attempts%s\n",
                anytime ? " or the deadline" : "");
    return 1;
  }
  std::printf("path found: %zu waypoints, metric length %.1f\n",
              path->size(), planner::path_length(*e, *path));
  for (std::size_t i = 0; i < path->size(); ++i) {
    const geo::Vec3 p = e->space().position((*path)[i]);
    std::printf("  waypoint %2zu: (%6.2f, %6.2f, %6.2f)\n", i, p.x, p.y, p.z);
  }
  std::printf("path valid: %s\n",
              planner::path_valid(*e, *path, 1.0) ? "yes" : "NO");
  return 0;
}
