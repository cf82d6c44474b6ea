// Figure 6: PRM in med-cube on HOPPER at higher core counts
// (p = 384..3072): the repartitioning benefit persists at scale, with the
// margin narrowing as regions per processor shrink. Exits 1 naming any
// DESIGN.md §4 shape the numbers miss.

#include "figure_common.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto regions = static_cast<std::uint32_t>(
      args.get_i64("regions", full ? 46656 : 13824));
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", full ? (1 << 20) : (1 << 18)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  const std::vector<std::uint32_t> procs{384, 768, 1536, 3072};
  const std::vector<core::Strategy> strategies{core::Strategy::kNoLB,
                                               core::Strategy::kRepartition};

  std::printf("=== Figure 6: PRM at scale (up to 3072 cores), med-cube, "
              "Hopper ===\n");
  const auto e = env::med_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), regions,
                                  false);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);

  const auto rows = bench::sweep_prm(w, procs, strategies,
                                     runtime::ClusterSpec::hopper(), seed);
  bench::print_time_table("Execution time (simulated seconds)", rows, procs,
                          strategies);
  std::printf("\n# regions/processor: ");
  for (const auto p : procs) std::printf("%u->%zu  ", p, grid.size() / p);
  std::printf("\n");

  const auto speedup = [&](std::uint32_t p) {
    return bench::sweep_time(rows, p, core::Strategy::kNoLB) /
           bench::sweep_time(rows, p, core::Strategy::kRepartition);
  };
  bench::ShapeGate gate;
  for (const auto p : procs)
    gate.expect(speedup(p) >= 1.2, "Repartitioning >= 1.2x NoLB at p=" +
                                       std::to_string(p) + " (" +
                                       bench::ratio_str(speedup(p)) + ")");
  gate.expect(speedup(procs.back()) < speedup(procs.front()),
              "Repartitioning speedup narrows from p=" +
                  std::to_string(procs.front()) + " (" +
                  bench::ratio_str(speedup(procs.front())) + ") to p=" +
                  std::to_string(procs.back()) + " (" +
                  bench::ratio_str(speedup(procs.back())) + ")");
  return gate.exit_code();
}
