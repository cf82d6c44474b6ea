// Figure 8: PRM with load balancing across environments on the Opteron
// cluster, p = 32..256.
//
// The paper's prose names med-cube / small-cube / free while the subplot
// captions name Walls / Walls-45 / Free; we run both sets. Expected shape:
// large gains in med-cube, modest gains in small-cube, and no significant
// overhead (or benefit) in free.

#include "figure_common.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto regions = static_cast<std::uint32_t>(
      args.get_i64("regions", full ? 13824 : 8000));
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", full ? (1 << 18) : (1 << 17)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  const std::vector<std::uint32_t> procs{32, 64, 128, 256};
  const auto cluster = runtime::ClusterSpec::opteron_cluster();

  std::printf("=== Figure 8: PRM across environments, Opteron cluster ===\n");

  const std::unique_ptr<env::Environment> envs[] = {
      env::med_cube(), env::small_cube(), env::free_env(), env::walls(false),
      env::walls(true)};
  const char* labels[] = {"(a) med-cube", "(b) small-cube", "(c) free",
                          "(alt) walls", "(alt) walls-45"};
  bench::ShapeGate gate;
  for (std::size_t i = 0; i < std::size(envs); ++i) {
    const auto& e = *envs[i];
    const core::RegionGrid grid = core::RegionGrid::make_auto(
        e.space().position_bounds(), regions, false);
    const auto w = bench::make_prm_workload(e, grid, attempts, seed);
    const auto rows =
        bench::sweep_prm(w, procs, bench::kPrmStrategies, cluster, seed);
    bench::print_time_table(
        std::string(labels[i]) + " execution time (simulated seconds)", rows,
        procs, bench::kPrmStrategies);
    if (i != 2) continue;
    // (c) free: load balancing costs nothing measurable.
    for (const std::uint32_t p : procs)
      for (const auto s : bench::kPrmStrategies) {
        if (s == core::Strategy::kNoLB) continue;
        const double slowdown =
            bench::sweep_time(rows, p, s) /
            bench::sweep_time(rows, p, core::Strategy::kNoLB);
        gate.expect(slowdown <= 1.05,
                    "free: " + core::to_string(s) +
                        " within 5% of NoLB at p=" + std::to_string(p) +
                        " (" + bench::ratio_str(slowdown) + ")");
      }
  }
  return gate.exit_code();
}
