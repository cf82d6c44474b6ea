#pragma once
/// \file figure_common.hpp
/// Shared plumbing for the figure-regeneration harnesses: standard
/// workload construction, strategy sweeps, and table output.
///
/// Every harness accepts:
///   --regions N      region-graph size (default per figure)
///   --attempts N     total sampling attempts / tree nodes
///   --seed S         global seed
///   --full           larger budgets (closer to the paper's scale)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/prm_driver.hpp"
#include "core/rrt_driver.hpp"
#include "env/builders.hpp"
#include "runtime/metrics_registry.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pmpl::bench {

/// Named strategy list used across the PRM figures.
inline const std::vector<core::Strategy> kPrmStrategies = {
    core::Strategy::kNoLB, core::Strategy::kRepartition,
    core::Strategy::kHybridWS, core::Strategy::kRand8WS};

/// Build (and time) a PRM workload for an environment.
inline core::Workload make_prm_workload(const env::Environment& e,
                                        const core::RegionGrid& grid,
                                        std::size_t attempts,
                                        std::uint64_t seed,
                                        bool announce = true) {
  WallTimer timer;
  core::PrmWorkloadConfig cfg;
  cfg.total_attempts = attempts;
  cfg.seed = seed;
  auto w = core::build_prm_workload(e, grid, cfg);
  if (announce) {
    std::printf(
        "# workload %-12s regions=%zu attempts=%zu |V|=%zu |E|=%zu "
        "(measured in %.2fs wall)\n",
        e.name().c_str(), grid.size(), attempts, w.roadmap.num_vertices(),
        w.roadmap.num_edges(), timer.elapsed_s());
  }
  return w;
}

/// One row of a strategy x procs sweep.
struct SweepRow {
  core::Strategy strategy;
  std::uint32_t procs;
  core::PrmRunResult result;
};

inline std::vector<SweepRow> sweep_prm(
    const core::Workload& w, const std::vector<std::uint32_t>& proc_counts,
    const std::vector<core::Strategy>& strategies,
    const runtime::ClusterSpec& cluster, std::uint64_t seed) {
  std::vector<SweepRow> rows;
  for (const std::uint32_t p : proc_counts) {
    for (const core::Strategy s : strategies) {
      core::PrmRunConfig cfg;
      cfg.procs = p;
      cfg.strategy = s;
      cfg.cluster = cluster;
      cfg.seed = seed;
      rows.push_back({s, p, core::simulate_prm_run(w, cfg)});
    }
  }
  return rows;
}

/// Print an execution-time table: rows = proc counts, cols = strategies.
inline void print_time_table(const std::string& title,
                             const std::vector<SweepRow>& rows,
                             const std::vector<std::uint32_t>& proc_counts,
                             const std::vector<core::Strategy>& strategies) {
  std::printf("\n%s\n", title.c_str());
  std::vector<std::string> header{"procs"};
  for (const auto s : strategies) header.push_back(core::to_string(s));
  header.push_back("best speedup");
  TextTable table(header);
  for (const std::uint32_t p : proc_counts) {
    table.row().num(static_cast<int>(p));
    double base = 0.0, best = 1e300;
    for (const auto s : strategies) {
      for (const auto& r : rows)
        if (r.procs == p && r.strategy == s) {
          table.num(r.result.total_s, 3);
          if (s == core::Strategy::kNoLB) base = r.result.total_s;
          best = std::min(best, r.result.total_s);
        }
    }
    table.cell(base > 0.0 ? [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2fx", base / best);
      return std::string(buf);
    }() : "-");
  }
  table.print();
}

/// Figure-shape gate: the DESIGN.md §4 expected shapes a harness asserts
/// on its own numbers. Each check prints one "# shape ok|FAILED" line; a
/// harness returns exit_code(), so any failed shape exits 1 (the `figures`
/// ctest label runs every gated harness).
class ShapeGate {
 public:
  void expect(bool ok, const std::string& shape) {
    std::printf("# shape %s: %s\n", ok ? "ok" : "FAILED", shape.c_str());
    if (!ok) ++failed_;
  }
  int exit_code() const {
    if (failed_ > 0) std::printf("# %d figure shape(s) FAILED\n", failed_);
    return failed_ > 0 ? 1 : 0;
  }

 private:
  int failed_ = 0;
};

/// Simulated time of `s` at `p` in a sweep (0 when absent).
inline double sweep_time(const std::vector<SweepRow>& rows, std::uint32_t p,
                         core::Strategy s) {
  for (const auto& r : rows)
    if (r.procs == p && r.strategy == s) return r.result.total_s;
  return 0.0;
}

/// Fixed-point ratio for shape messages ("1.43x").
inline std::string ratio_str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", x);
  return buf;
}

/// Shared `"metrics"` member for BENCH_*.json files: every bench embeds a
/// MetricsRegistry's flat snapshot under this one key, so downstream
/// tooling reads a single schema (counters/gauges/histograms) regardless
/// of which bench produced the file. Call between two members of the
/// top-level JSON object; writes no trailing comma or newline.
inline void write_metrics_member(std::FILE* f,
                                 const runtime::MetricsRegistry& reg) {
  std::fprintf(f, "  \"metrics\": %s", reg.to_json().c_str());
}

}  // namespace pmpl::bench
