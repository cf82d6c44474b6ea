// Planning-as-a-service load driver -> BENCH_service.json.
//
// Exercises the long-lived query engine (service/query_engine.hpp) against
// the sequential per-query baseline (planner::query_roadmap) and under
// snapshot churn:
//
//  - throughput: the batched engine must beat the baseline by >= 1.5x at
//    8 workers (hard gate, --quick included) *and* return bit-identical
//    paths — batching may only change speed, never answers;
//  - deadlines: a budgeted run reports the deadline-miss rate and exact
//    p50/p99/p999 latency over the in-deadline (non-degraded) answers;
//  - churn: a background thread densifies + publishes new epochs while the
//    engine serves; every solved path must validate against the
//    environment, every answer's epoch tag must be one the pool actually
//    published, and when the traffic stops the pool must have reclaimed
//    every retired snapshot (hard gates);
//  - a load x workers x churn sweep for the serving-throughput table.
//
// Output path overridable as argv[1]; --quick shrinks sizes for CI. Exits
// nonzero when any gate fails.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "figure_common.hpp"
#include "env/builders.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace pmpl;

namespace {

bool same_path(const std::vector<cspace::Config>& a,
               const std::vector<cspace::Config>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t d = 0; d < a[i].size(); ++d)
      if (a[i][d] != b[i][d]) return false;
  }
  return true;
}

/// Exact nearest-rank quantile over a sample vector (sorted in place).
double quantile_us(std::vector<double>& latencies_s, double q) {
  if (latencies_s.empty()) return 0.0;
  std::sort(latencies_s.begin(), latencies_s.end());
  const auto n = static_cast<double>(latencies_s.size());
  const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  return latencies_s[std::min(idx, latencies_s.size() - 1)] * 1e6;
}

struct WaveStats {
  double qps = 0.0;
  double p99_us = 0.0;
  std::size_t solved = 0;
};

/// Serve `reqs` through `engine` in waves of `wave`; optionally collect
/// results for equality checks.
WaveStats serve(service::QueryEngine& engine,
                const std::vector<service::QueryRequest>& reqs,
                std::size_t wave,
                std::vector<service::QueryResult>* out = nullptr) {
  WaveStats ws;
  std::vector<double> lat;
  lat.reserve(reqs.size());
  WallTimer timer;
  for (std::size_t i = 0; i < reqs.size(); i += wave) {
    const std::size_t n = std::min(wave, reqs.size() - i);
    auto results =
        engine.run_batch(std::span<const service::QueryRequest>(
            reqs.data() + i, n));
    for (auto& r : results) {
      if (r.status == service::QueryStatus::kSolved) ++ws.solved;
      lat.push_back(r.latency_s);
      if (out != nullptr) out->push_back(std::move(r));
    }
  }
  const double total_s = timer.elapsed_s();
  ws.qps = static_cast<double>(reqs.size()) / total_s;
  ws.p99_us = quantile_us(lat, 0.99);
  return ws;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_service.json";
  ArgParser args(argc, argv);
  const bool quick = args.has("quick");
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", quick ? 3000 : 12000, 1));
  const auto num_queries = static_cast<std::size_t>(
      args.get_i64("queries", quick ? 64 : 400, 1));
  const auto wave =
      static_cast<std::size_t>(args.get_i64("wave", 16, 1));
  const auto workers =
      static_cast<std::size_t>(args.get_i64("workers", 8, 1));
  const double deadline_ms = args.get_f64("deadline-ms", quick ? 50.0 : 200.0);
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 31));

  // --- workload -----------------------------------------------------------
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 8;
  params.resolution = 0.5;
  planner::Prm prm(*e, params);
  WallTimer build_timer;
  prm.build(attempts, seed);
  const planner::Roadmap roadmap = prm.roadmap();
  std::printf("# workload maze_2d attempts=%zu |V|=%zu |E|=%zu (%.2fs)\n",
              attempts, roadmap.num_vertices(), roadmap.num_edges(),
              build_timer.elapsed_s());

  Xoshiro256ss rng(seed + 1);
  std::vector<service::QueryRequest> reqs;
  while (reqs.size() < num_queries) {
    service::QueryRequest q;
    q.start = e->space().sample(rng);
    q.goal = e->space().sample(rng);
    if (!e->validity().valid(q.start) || !e->validity().valid(q.goal))
      continue;
    q.k = params.k_neighbors;
    reqs.push_back(std::move(q));
  }

  // --- baseline: sequential query_roadmap per query -----------------------
  // Each call rebuilds its k-NN finder from scratch — the per-query cost
  // the engine amortizes across the whole epoch.
  std::vector<std::optional<std::vector<cspace::Config>>> baseline;
  baseline.reserve(reqs.size());
  WallTimer base_timer;
  for (const auto& q : reqs)
    baseline.push_back(planner::query_roadmap(*e, roadmap, q.start, q.goal,
                                              q.k, params.resolution));
  const double baseline_s = base_timer.elapsed_s();
  const double baseline_qps = static_cast<double>(reqs.size()) / baseline_s;
  std::size_t baseline_solved = 0;
  for (const auto& p : baseline) baseline_solved += p.has_value() ? 1 : 0;
  std::printf("baseline: %zu queries, %zu solved, %.1f qps\n", reqs.size(),
              baseline_solved, baseline_qps);

  // --- engine: batched serving at `workers` -------------------------------
  service::SnapshotPool pool;
  pool.publish(planner::Roadmap(roadmap),
               planner::KdTreeKnn(e->space(), roadmap));
  runtime::MetricsRegistry metrics;
  service::QueryEngineConfig cfg;
  cfg.workers = workers;
  cfg.resolution = params.resolution;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  // Warm pass sizes the engine's scratch; the timed pass measures steady
  // serving (a long-lived service is warm by definition).
  engine.run_batch(std::span<const service::QueryRequest>(reqs.data(), 1));
  std::vector<service::QueryResult> engine_results;
  engine_results.reserve(reqs.size());
  const WaveStats served = serve(engine, reqs, wave, &engine_results);
  const double speedup = served.qps / baseline_qps;
  std::printf("engine:   %zu queries, %zu solved, %.1f qps -> %.2fx vs "
              "baseline (wave=%zu, workers=%zu)\n",
              reqs.size(), served.solved, served.qps, speedup, wave, workers);

  // Equality gate: batched answers must be bit-identical to the baseline.
  bool identical = true;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const bool engine_solved =
        engine_results[i].status == service::QueryStatus::kSolved;
    if (engine_solved != baseline[i].has_value() ||
        (engine_solved && !same_path(engine_results[i].path, *baseline[i]))) {
      std::fprintf(stderr, "FAIL: engine path differs from baseline at "
                   "query %zu\n", i);
      identical = false;
    }
  }

  // --- deadline run -------------------------------------------------------
  // Deadlines are armed per wave right before serving so every query gets
  // the same budget regardless of its position in the run.
  auto budget = reqs;
  std::vector<double> in_deadline_lat;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < budget.size(); i += wave) {
    const std::size_t n = std::min(wave, budget.size() - i);
    for (std::size_t j = i; j < i + n; ++j)
      budget[j].deadline = runtime::Deadline::after_ms(deadline_ms);
    const auto results = engine.run_batch(
        std::span<const service::QueryRequest>(budget.data() + i, n));
    for (const auto& r : results) {
      if (r.degraded)
        ++misses;
      else
        in_deadline_lat.push_back(r.latency_s);
    }
  }
  const double miss_rate =
      static_cast<double>(misses) / static_cast<double>(budget.size());
  const double dl_p50 = quantile_us(in_deadline_lat, 0.50);
  const double dl_p99 = quantile_us(in_deadline_lat, 0.99);
  const double dl_p999 = quantile_us(in_deadline_lat, 0.999);
  std::printf("deadline: budget %.0fms, %zu/%zu missed (%.1f%%), in-deadline "
              "p50 %.0fus p99 %.0fus p999 %.0fus\n",
              deadline_ms, misses, budget.size(), miss_rate * 100.0, dl_p50,
              dl_p99, dl_p999);

  // --- churn: serve while a publisher swaps epochs underneath -------------
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> publishes{0};
  std::thread publisher([&] {
    std::uint64_t pseed = seed + 100;
    while (!stop.load(std::memory_order_acquire)) {
      service::densify_and_publish(pool, *e, params, quick ? 40 : 150,
                                   pseed++);
      publishes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  bool churn_ok = true;
  std::size_t churn_solved = 0;
  std::uint64_t min_epoch = ~0ull, max_epoch = 0;
  const int churn_waves = quick ? 6 : 20;
  for (int w = 0; w < churn_waves; ++w) {
    const auto results = engine.run_batch(std::span<const
        service::QueryRequest>(reqs.data(), std::min<std::size_t>(wave,
                                                                  reqs.size())));
    for (const auto& r : results) {
      if (r.status != service::QueryStatus::kSolved) continue;
      ++churn_solved;
      min_epoch = std::min(min_epoch, r.epoch);
      max_epoch = std::max(max_epoch, r.epoch);
      if (r.epoch == 0 || r.epoch > pool.published_total()) {
        std::fprintf(stderr, "FAIL: answer tagged unpublished epoch %llu\n",
                     static_cast<unsigned long long>(r.epoch));
        churn_ok = false;
      }
      if (!planner::path_valid(*e, r.path, params.resolution)) {
        std::fprintf(stderr, "FAIL: invalid path served during churn\n");
        churn_ok = false;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  // Reclamation gate: with traffic stopped and no refs held, only the
  // current epoch may remain resident.
  const std::uint64_t live_end = pool.live_slots();
  const std::uint64_t reclaimed = pool.reclaimed_total();
  if (live_end != 1) {
    std::fprintf(stderr, "FAIL: %llu snapshots resident after churn "
                 "(leaked retired epochs)\n",
                 static_cast<unsigned long long>(live_end));
    churn_ok = false;
  }
  if (churn_solved == 0) {
    std::fprintf(stderr, "FAIL: no queries solved during churn\n");
    churn_ok = false;
  }
  std::printf("churn:    %llu publishes, %zu solved across epochs "
              "[%llu, %llu], %llu reclaimed, %llu resident\n",
              static_cast<unsigned long long>(publishes.load()), churn_solved,
              static_cast<unsigned long long>(min_epoch),
              static_cast<unsigned long long>(max_epoch),
              static_cast<unsigned long long>(reclaimed),
              static_cast<unsigned long long>(live_end));

  // --- sweep: load x workers x churn --------------------------------------
  TextTable table({"workers", "wave", "churn", "qps", "p99 us"});
  struct SweepCell {
    std::size_t workers, wave;
    bool churn;
    WaveStats ws;
  };
  std::vector<SweepCell> sweep;
  const std::vector<std::size_t> sweep_workers =
      quick ? std::vector<std::size_t>{1, workers}
            : std::vector<std::size_t>{1, 2, 4, workers};
  const std::vector<std::size_t> sweep_waves =
      quick ? std::vector<std::size_t>{4, wave}
            : std::vector<std::size_t>{1, 4, wave, 2 * wave};
  for (const bool churn : {false, true}) {
    std::atomic<bool> sstop{false};
    std::thread spub;
    if (churn)
      spub = std::thread([&] {
        std::uint64_t pseed = seed + 500;
        while (!sstop.load(std::memory_order_acquire))
          service::densify_and_publish(pool, *e, params, quick ? 40 : 150,
                                       pseed++);
      });
    for (const std::size_t sw : sweep_workers) {
      for (const std::size_t sv : sweep_waves) {
        runtime::MetricsRegistry sink;
        service::QueryEngineConfig scfg = cfg;
        scfg.workers = sw;
        scfg.metrics = &sink;
        service::QueryEngine se(*e, pool, scfg);
        const auto ws = serve(se, reqs, sv);
        sweep.push_back({sw, sv, churn, ws});
        table.row()
            .num(static_cast<std::uint64_t>(sw))
            .num(static_cast<std::uint64_t>(sv))
            .cell(churn ? "on" : "off")
            .num(ws.qps, 1)
            .num(ws.p99_us, 0);
      }
    }
    if (churn) {
      sstop.store(true, std::memory_order_release);
      spub.join();
    }
  }
  std::printf("\nserving throughput sweep\n");
  table.print();

  engine.publish_pool_metrics();

  // --- report -------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"service\",\n  \"quick\": %s,\n"
      "  \"workload\": {\n"
      "    \"env\": \"maze_2d\",\n    \"vertices\": %zu,\n"
      "    \"edges\": %zu,\n    \"queries\": %zu\n  },\n"
      "  \"baseline\": {\n"
      "    \"qps\": %.1f,\n    \"solved\": %zu\n  },\n"
      "  \"engine\": {\n"
      "    \"workers\": %zu,\n    \"wave\": %zu,\n    \"qps\": %.1f,\n"
      "    \"solved\": %zu,\n    \"speedup\": %.3f,\n"
      "    \"paths_bit_identical\": %s\n  },\n"
      "  \"deadline\": {\n"
      "    \"budget_ms\": %.1f,\n    \"misses\": %zu,\n"
      "    \"miss_rate\": %.4f,\n    \"in_deadline_p50_us\": %.1f,\n"
      "    \"in_deadline_p99_us\": %.1f,\n"
      "    \"in_deadline_p999_us\": %.1f\n  },\n"
      "  \"churn\": {\n"
      "    \"publishes\": %llu,\n    \"solved\": %zu,\n"
      "    \"epoch_min\": %llu,\n    \"epoch_max\": %llu,\n"
      "    \"reclaimed\": %llu,\n    \"resident_end\": %llu,\n"
      "    \"ok\": %s\n  },\n"
      "  \"sweep\": [\n",
      quick ? "true" : "false", roadmap.num_vertices(), roadmap.num_edges(),
      reqs.size(), baseline_qps, baseline_solved, workers, wave, served.qps,
      served.solved, speedup, identical ? "true" : "false", deadline_ms,
      misses, miss_rate, dl_p50, dl_p99, dl_p999,
      static_cast<unsigned long long>(publishes.load()), churn_solved,
      static_cast<unsigned long long>(min_epoch),
      static_cast<unsigned long long>(max_epoch),
      static_cast<unsigned long long>(reclaimed),
      static_cast<unsigned long long>(live_end), churn_ok ? "true" : "false");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& c = sweep[i];
    std::fprintf(f,
                 "    {\"workers\": %zu, \"wave\": %zu, \"churn\": %s, "
                 "\"qps\": %.1f, \"p99_us\": %.1f}%s\n",
                 c.workers, c.wave, c.churn ? "true" : "false", c.ws.qps,
                 c.ws.p99_us, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  bench::write_metrics_member(f, metrics);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // --- gates --------------------------------------------------------------
  int rc = 0;
  if (!identical) rc = 1;
  if (!churn_ok) rc = 1;
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: batched serving %.2fx vs sequential baseline at "
                 "%zu workers — gate is 1.5x\n",
                 speedup, workers);
    rc = 1;
  }
  if (served.solved != baseline_solved) {
    std::fprintf(stderr, "FAIL: engine solved %zu vs baseline %zu\n",
                 served.solved, baseline_solved);
    rc = 1;
  }
  return rc;
}
