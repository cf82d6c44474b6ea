// Figure 5: PRM with load balancing in med-cube on HOPPER.
//
// (a) Strong-scaling execution time at p = 96..768 for Without LB /
//     Repartitioning / Hybrid WS / Rand-8 WS.
// (b) Coefficient of variation of roadmap nodes per processor before and
//     after repartitioning.
// (c) Load profile (roadmap nodes per processor) at p = 192 for the naive
//     mapping, repartitioning, and the ideal.

#include <algorithm>

#include "figure_common.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto regions = static_cast<std::uint32_t>(
      args.get_i64("regions", full ? 32768 : 13824));
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", full ? (1 << 19) : (1 << 18)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  const std::vector<std::uint32_t> procs{96, 192, 384, 768};

  std::printf("=== Figure 5: PRM load balancing, med-cube, Hopper ===\n");
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), regions,
                                  false);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);
  const auto cluster = runtime::ClusterSpec::hopper();

  const auto rows =
      bench::sweep_prm(w, procs, bench::kPrmStrategies, cluster, seed);
  bench::print_time_table("(a) Execution time (simulated seconds)", rows,
                          procs, bench::kPrmStrategies);
  bench::ShapeGate gate;
  for (const std::uint32_t p : procs)
    for (const auto s : bench::kPrmStrategies) {
      if (s == core::Strategy::kNoLB) continue;
      const double gain = bench::sweep_time(rows, p, core::Strategy::kNoLB) /
                          bench::sweep_time(rows, p, s);
      gate.expect(gain >= 1.3, core::to_string(s) + " >= 1.3x NoLB at p=" +
                                   std::to_string(p) + " (" +
                                   bench::ratio_str(gain) + ")");
    }

  std::printf("\n(b) CV of roadmap nodes per processor\n");
  TextTable cv_table({"procs", "before repartitioning",
                      "after repartitioning"});
  for (const std::uint32_t p : procs)
    for (const auto& r : rows)
      if (r.procs == p && r.strategy == core::Strategy::kRepartition)
        cv_table.row()
            .num(static_cast<int>(p))
            .num(r.result.cv_nodes_before, 3)
            .num(r.result.cv_nodes_after, 3);
  cv_table.print();

  std::printf("\n(c) Load profile at p = 192 (nodes/processor, sorted "
              "descending; deciles)\n");
  core::PrmRunConfig cfg;
  cfg.procs = 192;
  cfg.seed = seed;
  cfg.cluster = cluster;
  cfg.strategy = core::Strategy::kNoLB;
  auto no_lb = core::simulate_prm_run(w, cfg).nodes_per_proc;
  cfg.strategy = core::Strategy::kRepartition;
  auto repart = core::simulate_prm_run(w, cfg).nodes_per_proc;
  std::sort(no_lb.rbegin(), no_lb.rend());
  std::sort(repart.rbegin(), repart.rend());
  const std::uint64_t ideal = w.roadmap.num_vertices() / 192;
  TextTable profile({"percentile", "Without LB", "Repartitioning", "Ideal"});
  for (const int pct : {0, 10, 25, 50, 75, 90, 100}) {
    const std::size_t idx =
        std::min<std::size_t>(191, static_cast<std::size_t>(pct) * 192 / 100);
    profile.row()
        .cell("p" + std::to_string(pct))
        .num(no_lb[idx])
        .num(repart[idx])
        .num(ideal);
  }
  profile.print();
  return gate.exit_code();
}
