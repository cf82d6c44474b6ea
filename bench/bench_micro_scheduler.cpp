// Scheduler substrate microbenchmark: throughput of the lock-free
// Chase–Lev work-stealing Scheduler across task grains (1/10/100 µs of
// busy work) and thread counts (1..max hardware threads, plus
// oversubscribed points on small machines). Gate: the per-worker counters
// advance monotonically and count exactly the tasks submitted.
//
// Wave rows: the query engine's wave shape, a parallel_for of 16 items of
// 25 µs (chunk 1) called from a thread outside the pool, at 1/2/4 workers.
// Each reports the p50/p90 of the wave's wall time and of its overhead
// over the pool's ideal, ceil(16 / workers) * 25 µs. A caller that claims
// items itself can beat that ideal, so the overhead can read negative.
//
// Emits a machine-readable BENCH_scheduler.json (path overridable as
// argv[1]) so the perf trajectory of the runtime can be tracked across
// PRs, and prints a human-readable table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics_registry.hpp"
#include "runtime/scheduler.hpp"
#include "util/timer.hpp"

namespace {

/// Busy work of roughly `us` microseconds (clock-bounded spin).
void spin_us(double us) {
  if (us <= 0.0) return;
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(static_cast<long>(us * 1e3));
  while (std::chrono::steady_clock::now() < end) {
  }
}

struct Row {
  double grain_us = 0.0;
  std::size_t threads = 0;
  std::size_t tasks = 0;
  double wall_s = 0.0;
  double tasks_per_s = 0.0;
  std::uint64_t steal_failures = 0;
  double park_s = 0.0;
};

/// One repetition on a *persistent* scheduler, so its counters accumulate
/// across reps and their monotonicity can be asserted.
double time_scheduler(pmpl::runtime::Scheduler& sched, std::size_t tasks,
                      double grain_us) {
  pmpl::runtime::TaskGroup group;
  pmpl::WallTimer t;
  for (std::size_t i = 0; i < tasks; ++i)
    sched.submit([grain_us] { spin_us(grain_us); }, group);
  sched.wait(group);
  return t.elapsed_s();
}

struct WaveRow {
  std::size_t threads = 0;
  std::size_t waves = 0;
  double ideal_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};

constexpr std::size_t kWaveTasks = 16;
constexpr double kWaveGrainUs = 25.0;

/// Wall-time quantiles of `waves` engine-shaped waves from this (external)
/// thread, after a warm-up.
WaveRow time_waves(std::size_t threads, std::size_t waves) {
  pmpl::runtime::Scheduler sched(threads);
  const std::function<void(std::size_t)> item = [](std::size_t) {
    spin_us(kWaveGrainUs);
  };
  for (int i = 0; i < 50; ++i)
    pmpl::runtime::parallel_for(sched, kWaveTasks, item, 1);
  std::vector<double> wall_us(waves);
  for (double& w : wall_us) {
    pmpl::WallTimer t;
    pmpl::runtime::parallel_for(sched, kWaveTasks, item, 1);
    w = t.elapsed_s() * 1e6;
  }
  std::sort(wall_us.begin(), wall_us.end());
  const auto at = [&](double q) {
    return wall_us[static_cast<std::size_t>(q * static_cast<double>(waves - 1))];
  };
  const std::size_t rounds = (kWaveTasks + threads - 1) / threads;
  return {threads, waves, static_cast<double>(rounds) * kWaveGrainUs,
          at(0.5), at(0.9)};
}

/// Scheduler counters summed across workers.
struct SchedTotals {
  std::uint64_t executed = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_failures = 0;
  double park_s = 0.0;
};

SchedTotals totals_of(const pmpl::runtime::Scheduler& sched) {
  SchedTotals t;
  for (const auto& c : sched.counters()) {
    t.executed += c.executed_local + c.executed_stolen;
    t.steal_attempts += c.steal_attempts;
    t.steal_failures += c.steal_failures;
    t.park_s += c.park_s;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scheduler.json";
  const auto hw = std::max(1u, std::thread::hardware_concurrency());

  // Thread sweep: powers of two through the hardware width; on narrow
  // machines extend past it so queue contention is still exercised.
  std::vector<std::size_t> thread_counts;
  for (std::size_t p = 1; p <= hw; p *= 2) thread_counts.push_back(p);
  while (thread_counts.size() < 3) thread_counts.push_back(thread_counts.back() * 2);
  if (thread_counts.back() != hw && hw > thread_counts.back())
    thread_counts.push_back(hw);

  const std::vector<std::pair<double, std::size_t>> grains = {
      {1.0, 16384}, {10.0, 4096}, {100.0, 512}};
  constexpr int kReps = 3;

  // Open the output before the sweep so a bad path fails fast.
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  std::vector<Row> rows;
  int monotonicity_violations = 0;
  pmpl::runtime::MetricsRegistry metrics;
  std::printf("# scheduler substrate: %u hardware threads\n", hw);
  std::printf("%9s %8s %8s %12s %14s\n", "grain_us", "threads", "tasks",
              "wall_s", "tasks_per_s");
  for (const auto& [grain_us, tasks] : grains) {
    for (const std::size_t p : thread_counts) {
      // One persistent Scheduler per (grain, threads) config: counters
      // accumulate across repetitions, so each rep must advance them
      // monotonically and execute exactly `tasks` more tasks.
      pmpl::runtime::Scheduler sched(p);
      double best = 1e100;
      SchedTotals prev = totals_of(sched);
      for (int rep = 0; rep < kReps; ++rep) {
        best = std::min(best, time_scheduler(sched, tasks, grain_us));
        const SchedTotals cur = totals_of(sched);
        if (cur.executed != prev.executed + tasks ||
            cur.steal_attempts < prev.steal_attempts ||
            cur.steal_failures < prev.steal_failures ||
            cur.park_s < prev.park_s) {
          std::fprintf(stderr,
                       "FAIL: counters not monotone at grain=%.0f p=%zu "
                       "rep=%d (executed %llu -> %llu, expected +%zu)\n",
                       grain_us, p, rep,
                       static_cast<unsigned long long>(prev.executed),
                       static_cast<unsigned long long>(cur.executed), tasks);
          ++monotonicity_violations;
        }
        prev = cur;
      }
      metrics.add("scheduler/executed", prev.executed);
      metrics.add("scheduler/steal_attempts", prev.steal_attempts);
      metrics.add("scheduler/steal_failures", prev.steal_failures);
      metrics.observe("scheduler/park_s_per_config", prev.park_s);
      Row row{grain_us, p, tasks, best, static_cast<double>(tasks) / best,
              prev.steal_failures, prev.park_s};
      std::printf("%9.0f %8zu %8zu %12.6f %14.0f\n", row.grain_us,
                  row.threads, row.tasks, row.wall_s, row.tasks_per_s);
      rows.push_back(row);
    }
  }

  std::printf("\n# waves: %zu items of %.0f us, chunk 1, external caller\n",
              kWaveTasks, kWaveGrainUs);
  std::printf("%8s %8s %10s %10s %10s %14s %14s\n", "threads", "waves",
              "ideal_us", "p50_us", "p90_us", "p50_over_us", "p90_over_us");
  std::vector<WaveRow> wave_rows;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const WaveRow w = time_waves(p, 2000);
    std::printf("%8zu %8zu %10.1f %10.1f %10.1f %14.1f %14.1f\n", w.threads,
                w.waves, w.ideal_us, w.p50_us, w.p90_us, w.p50_us - w.ideal_us,
                w.p90_us - w.ideal_us);
    wave_rows.push_back(w);
  }

  std::fprintf(f, "{\n  \"bench\": \"scheduler_substrate\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n  \"results\": [\n", hw);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"grain_us\": %.0f, \"threads\": %zu, \"tasks\": %zu, "
                 "\"wall_s\": %.6f, \"tasks_per_s\": %.0f, "
                 "\"steal_failures\": %llu, \"park_s\": %.6f}%s\n",
                 r.grain_us, r.threads, r.tasks, r.wall_s, r.tasks_per_s,
                 static_cast<unsigned long long>(r.steal_failures), r.park_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"waves\": [\n");
  for (std::size_t i = 0; i < wave_rows.size(); ++i) {
    const WaveRow& w = wave_rows[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"tasks\": %zu, \"grain_us\": %.0f, "
                 "\"waves\": %zu, \"ideal_us\": %.1f, \"p50_us\": %.1f, "
                 "\"p90_us\": %.1f, \"p50_overhead_us\": %.1f, "
                 "\"p90_overhead_us\": %.1f}%s\n",
                 w.threads, kWaveTasks, kWaveGrainUs, w.waves, w.ideal_us,
                 w.p50_us, w.p90_us, w.p50_us - w.ideal_us,
                 w.p90_us - w.ideal_us, i + 1 < wave_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n", metrics.to_json().c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (monotonicity_violations > 0) {
    std::fprintf(stderr, "%d counter monotonicity violation(s)\n",
                 monotonicity_violations);
    return 1;
  }
  return 0;
}
