// pland — planning-as-a-service demo daemon.
//
// Stands up the long-lived query engine over a snapshot pool, drives it
// with a synthetic query load (optionally while a background publisher
// keeps densifying the roadmap), and reports serving statistics. The
// closest thing the repo has to running the planner as a service without
// a network frontend:
//
//   $ pland --env maze --attempts 6000 --queries 200 --workers 4
//           --deadline-ms 100 --churn --metrics pland_metrics.json
//           --trace pland.trace.json
//
// Options:
//   --env NAME         maze | warehouse          (default maze)
//   --attempts N       PRM build attempts        (default 6000)
//   --queries N        queries to serve          (default 100)
//   --wave N           queries per engine batch  (default 16)
//   --workers N        engine A* workers         (default 4)
//   --deadline-ms D    per-query budget, 0 = none (default 0)
//   --churn            publish new epochs while serving
//   --seed S           RNG seed                  (default 7)
//   --metrics FILE     write the MetricsRegistry snapshot as JSON
//   --trace FILE       write a Perfetto-loadable trace with one flow
//                      arrow per query (admission -> A* worker)
//
// Exit status: 0 when every wave served and (if solvable) at least one
// query solved; 1 on setup failure; 2 on a bad or unknown flag.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/builders.hpp"
#include "planner/prm.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string env_name = args.get("env", "maze");
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 6000, 1));
  const auto queries =
      static_cast<std::size_t>(args.get_i64("queries", 100, 1));
  const auto wave = static_cast<std::size_t>(args.get_i64("wave", 16, 1));
  const auto workers =
      static_cast<std::size_t>(args.get_i64("workers", 4, 1));
  const double deadline_ms = args.get_f64("deadline-ms", 0.0);
  const bool churn = args.has("churn");
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 7));
  const std::string metrics_path = args.get("metrics", "");
  const std::string trace_path = args.get("trace", "");
  args.reject_unknown();

  std::unique_ptr<env::Environment> e;
  if (env_name == "maze") {
    e = env::maze_2d();
  } else if (env_name == "warehouse") {
    e = env::warehouse();
  } else {
    std::fprintf(stderr, "pland: unknown --env '%s' (maze | warehouse)\n",
                 env_name.c_str());
    return 1;
  }

  planner::PrmParams params;
  params.k_neighbors = 8;
  params.resolution = env_name == "maze" ? 0.5 : 1.0;

  // Epoch 1: the initial roadmap.
  WallTimer build_timer;
  planner::Prm prm(*e, params);
  prm.build(attempts, seed);
  service::SnapshotPool pool;
  planner::KdTreeKnn knn(e->space(), prm.roadmap());
  pool.publish(prm.roadmap(), std::move(knn));
  std::printf("pland: %s epoch 1 published — %zu vertices, %zu edges "
              "(built in %.2fs)\n",
              env_name.c_str(), prm.roadmap().num_vertices(),
              prm.roadmap().num_edges(), build_timer.elapsed_s());

  runtime::MetricsRegistry metrics;
  std::unique_ptr<runtime::Tracer> tracer;
  if (!trace_path.empty()) tracer = std::make_unique<runtime::Tracer>();

  service::QueryEngineConfig cfg;
  cfg.workers = workers;
  cfg.resolution = params.resolution;
  cfg.metrics = &metrics;
  cfg.tracer = tracer.get();
  service::QueryEngine engine(*e, pool, cfg);

  // Optional background publisher: keeps retiring the served epoch under
  // live traffic (the engine pins each wave's snapshot; retired epochs
  // reclaim when their last wave finishes).
  std::atomic<bool> stop{false};
  std::thread publisher;
  if (churn)
    publisher = std::thread([&] {
      std::uint64_t pseed = seed + 1000;
      while (!stop.load(std::memory_order_acquire))
        service::densify_and_publish(pool, *e, params, attempts / 20,
                                     pseed++);
    });

  // Synthetic load: random valid start/goal pairs.
  Xoshiro256ss rng(seed + 1);
  const auto draw_free = [&](cspace::Config& c) {
    for (int tries = 0; tries < 500; ++tries) {
      c = e->space().sample(rng);
      if (e->validity().valid(c)) return true;
    }
    return false;
  };

  std::size_t submitted = 0, solved = 0, missed = 0, unreachable = 0;
  std::uint64_t first_epoch = 0, last_epoch = 0;
  WallTimer serve_timer;
  while (submitted < queries) {
    const std::size_t n = std::min(wave, queries - submitted);
    for (std::size_t i = 0; i < n; ++i) {
      service::QueryRequest q;
      if (!draw_free(q.start) || !draw_free(q.goal)) continue;
      q.k = params.k_neighbors;
      if (deadline_ms > 0.0)
        q.deadline = runtime::Deadline::after_ms(deadline_ms);
      engine.submit(std::move(q));
      ++submitted;
    }
    for (const auto& [id, r] : engine.drain()) {
      (void)id;
      if (first_epoch == 0) first_epoch = r.epoch;
      last_epoch = std::max(last_epoch, r.epoch);
      switch (r.status) {
        case service::QueryStatus::kSolved:
          ++solved;
          if (r.degraded) ++missed;  // late delivery
          break;
        case service::QueryStatus::kDeadlineMiss:
          ++missed;
          break;
        case service::QueryStatus::kUnreachable:
          ++unreachable;
          break;
        default:
          break;
      }
    }
  }
  const double serve_s = serve_timer.elapsed_s();
  if (churn) {
    stop.store(true, std::memory_order_release);
    publisher.join();
  }
  engine.publish_pool_metrics();

  const auto lat = engine.latency();
  TextTable table({"served", "solved", "unreachable", "deadline missed",
                   "qps", "p50 us", "p99 us", "p999 us"});
  table.row()
      .num(static_cast<std::uint64_t>(submitted))
      .num(static_cast<std::uint64_t>(solved))
      .num(static_cast<std::uint64_t>(unreachable))
      .num(static_cast<std::uint64_t>(missed))
      .num(static_cast<double>(submitted) / serve_s, 1)
      .num(lat.p50_us, 0)
      .num(lat.p99_us, 0)
      .num(lat.p999_us, 0);
  table.print();
  std::printf("epochs served: %llu..%llu (published %llu, reclaimed %llu, "
              "resident %llu)\n",
              static_cast<unsigned long long>(first_epoch),
              static_cast<unsigned long long>(last_epoch),
              static_cast<unsigned long long>(pool.published_total()),
              static_cast<unsigned long long>(pool.reclaimed_total()),
              static_cast<unsigned long long>(pool.live_slots()));

  // Where the wave time went, from the engine's per-wave stage histograms
  // (every wave observes all four): admission is the caller's wall time,
  // the other three are summed over the queries on every worker.
  const char* const stages[] = {"admit", "knn", "edges", "astar"};
  double stage_us[4];
  double total_us = 0.0;
  std::uint64_t waves = 0;
  for (int i = 0; i < 4; ++i) {
    const auto& h =
        metrics.histogram(std::string("service/stage_us/") + stages[i]);
    stage_us[i] = h.sum();
    total_us += h.sum();
    waves = h.count();
  }
  std::printf("stages, thread us per wave over %llu waves (admit on the "
              "caller):",
              static_cast<unsigned long long>(waves));
  for (int i = 0; i < 4; ++i)
    std::printf(" %s %.0f", stages[i],
                waves > 0 ? stage_us[i] / static_cast<double>(waves) : 0.0);
  std::printf(" (astar %.0f%%)\n",
              total_us > 0.0 ? 100.0 * stage_us[3] / total_us : 0.0);
  if (const service::SnapshotRef cur = pool.acquire()) {
    const planner::LandmarkTable& lt = cur->landmarks;
    std::printf("landmarks, epoch %llu: %zu per component, %zu components, "
                "%.1f KiB, built in %.2f ms\n",
                static_cast<unsigned long long>(cur->epoch),
                planner::LandmarkTable::kLandmarks, lt.num_components(),
                static_cast<double>(lt.bytes()) / 1024.0,
                lt.build_seconds() * 1e3);
  }

  if (!metrics_path.empty()) {
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", metrics.to_json().c_str());
      std::fclose(f);
      std::printf("metrics -> %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "pland: cannot write %s\n", metrics_path.c_str());
    }
  }
  if (tracer) {
    if (runtime::export_chrome_trace(*tracer, trace_path))
      std::printf("trace -> %s (load in Perfetto; category \"query\" "
                  "carries one flow arrow per query)\n",
                  trace_path.c_str());
    else
      std::fprintf(stderr, "pland: cannot write %s\n", trace_path.c_str());
  }
  return 0;
}
