// Figure 9: distribution of tasks induced by HYBRID work stealing for PRM
// at p = 96 and p = 768 (med-cube, Hopper).
//
// At 96 cores many underloaded processors find and execute a substantial
// number of stolen tasks; at 768 cores stealable work per processor
// collapses and few processors manage to steal at all.

#include <algorithm>

#include "figure_common.hpp"

using namespace pmpl;

namespace {

/// Print the p = `procs` task distribution; returns the mean stolen tasks
/// per processor.
double report(const core::Workload& w, std::uint32_t procs,
              std::uint64_t seed) {
  core::PrmRunConfig cfg;
  cfg.procs = procs;
  cfg.strategy = core::Strategy::kHybridWS;
  cfg.cluster = runtime::ClusterSpec::hopper();
  cfg.seed = seed;
  const auto r = core::simulate_prm_run(w, cfg);
  const auto& ws = r.ws;

  std::vector<std::uint64_t> stolen = ws.stolen_tasks;
  std::sort(stolen.rbegin(), stolen.rend());
  std::uint64_t total_stolen = 0, total_local = 0, thieves = 0;
  for (std::uint32_t p = 0; p < procs; ++p) {
    total_stolen += ws.stolen_tasks[p];
    total_local += ws.local_tasks[p];
    if (ws.stolen_tasks[p] > 0) ++thieves;
  }

  std::printf("\n--- p = %u ---\n", procs);
  TextTable table({"metric", "value"});
  table.row().cell("tasks executed (local)").num(total_local);
  table.row().cell("tasks executed (stolen)").num(total_stolen);
  table.row().cell("stolen fraction").num(ws.stolen_fraction(), 3);
  table.row().cell("processors that stole >0 tasks").num(thieves);
  table.row().cell("stolen tasks/processor (mean)").num(
      double(total_stolen) / procs, 2);
  table.row().cell("steal requests").num(ws.steal_requests);
  table.row().cell("steal grants").num(ws.steal_grants);
  table.row().cell("steal denies").num(ws.steal_denies);
  table.print();

  std::printf("stolen-task profile (sorted desc): ");
  for (const int pct : {0, 10, 25, 50, 75, 100}) {
    const std::size_t idx = std::min<std::size_t>(
        procs - 1, static_cast<std::size_t>(pct) * procs / 100);
    std::printf("p%d=%llu  ", pct,
                static_cast<unsigned long long>(stolen[idx]));
  }
  std::printf("\n");
  return double(total_stolen) / procs;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto regions = static_cast<std::uint32_t>(
      args.get_i64("regions", full ? 32768 : 13824));
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", full ? (1 << 19) : (1 << 18)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));

  std::printf(
      "=== Figure 9: stolen vs local tasks, Hybrid WS, med-cube ===\n");
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), regions,
                                  false);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);

  const double at_96 = report(w, 96, seed);
  const double at_768 = report(w, 768, seed);
  std::printf(
      "\n# expectation: stolen tasks/processor collapse from 96 to 768\n"
      "# cores (less stealable work per processor, more victims to probe).\n");
  bench::ShapeGate gate;
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.2f vs %.2f)", at_768, at_96);
  gate.expect(at_768 <= 0.5 * at_96,
              "stolen tasks/processor at p=768 <= half of p=96 " +
                  std::string(buf));
  return gate.exit_code();
}
