// Figure 10: radial RRT with load balancing on the Opteron cluster,
// p = 8..256, in mixed (60% blocked) / mixed-30 / free.
//
// Work stealing gives ~2x in mixed, less in mixed-30, and neither helps
// nor hurts in free. Repartitioning (shown for mixed-30, as in the paper's
// subplot (b)) uses the k-random-rays weight probe — a poor estimator whose
// partition can be *worse* than no load balancing.

#include "figure_common.hpp"

using namespace pmpl;

namespace {

/// Which shapes an environment's table must show.
enum class Expect {
  kWsWins,            ///< every WS strategy beats NoLB at every p
  kWsWinsRepartLoses, ///< ... and k-rays repartitioning loses to NoLB
  kNoOverhead,        ///< no strategy more than 5% slower than NoLB
};

void run_env(std::unique_ptr<env::Environment> e, const char* label,
             Expect expect, std::uint32_t regions, std::size_t nodes,
             std::uint64_t seed, bench::ShapeGate& gate) {
  const bool with_repartitioning = expect == Expect::kWsWinsRepartLoses;
  const geo::Vec3 root_pos{50, 50, 50};
  const core::RadialRegions radial(root_pos, 45.0, regions, 4, seed,
                                   /*two_d=*/false);
  Xoshiro256ss rng(seed);
  const auto root = e->space().at_position(root_pos, rng);

  WallTimer timer;
  core::RrtWorkloadConfig wcfg;
  wcfg.total_nodes = nodes;
  wcfg.seed = seed;
  const auto w = core::build_rrt_workload(*e, radial, root, wcfg);
  std::printf("\n# workload %-10s regions=%u tree nodes=%zu "
              "(measured in %.2fs wall)\n",
              e->name().c_str(), regions, w.roadmap.num_vertices(),
              timer.elapsed_s());

  std::vector<core::Strategy> strategies{
      core::Strategy::kNoLB, core::Strategy::kHybridWS,
      core::Strategy::kRand8WS, core::Strategy::kDiffusiveWS};
  if (with_repartitioning) strategies.push_back(core::Strategy::kRepartition);

  std::printf("%s execution time (simulated seconds)\n", label);
  std::vector<std::string> header{"procs"};
  for (const auto s : strategies)
    header.push_back(s == core::Strategy::kRepartition ? "Repart (k-rays)"
                                                       : core::to_string(s));
  header.push_back("best WS speedup");
  TextTable table(header);
  double corr = 0.0;
  for (const std::uint32_t p : {8u, 32u, 64u, 128u, 256u}) {
    table.row().num(static_cast<int>(p));
    double base = 0.0, best_ws = 1e300;
    for (const auto s : strategies) {
      core::RrtRunConfig cfg;
      cfg.procs = p;
      cfg.strategy = s;
      cfg.cluster = runtime::ClusterSpec::opteron_cluster();
      cfg.seed = seed;
      const auto r = core::simulate_rrt_run(w, *e, radial, cfg);
      table.num(r.total_s, 3);
      if (s == core::Strategy::kNoLB) {
        base = r.total_s;  // the first column: every check below has it
        continue;
      }
      if (core::is_work_stealing(s)) best_ws = std::min(best_ws, r.total_s);
      if (s == core::Strategy::kRepartition) corr = r.weight_correlation;
      const std::string at = " at p=" + std::to_string(p) + " (" +
                             bench::ratio_str(r.total_s / base) +
                             " of NoLB's time)";
      if (expect == Expect::kNoOverhead)
        gate.expect(r.total_s <= 1.05 * base,
                    e->name() + ": " + core::to_string(s) +
                        " within 5% of NoLB" + at);
      else if (core::is_work_stealing(s))
        gate.expect(r.total_s < base,
                    e->name() + ": " + core::to_string(s) + " beats NoLB" +
                        at);
      else
        gate.expect(r.total_s > base,
                    e->name() + ": k-rays repartitioning loses to NoLB" + at);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", base / best_ws);
    table.cell(buf);
  }
  table.print();
  if (with_repartitioning)
    std::printf("# k-rays weight vs true branch cost correlation: %.2f "
                "(imperfect -> repartitioning can lose)\n", corr);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto regions = static_cast<std::uint32_t>(
      args.get_i64("regions", full ? 4096 : 2048));
  const auto nodes = static_cast<std::size_t>(
      args.get_i64("nodes", full ? (1 << 16) : (1 << 15)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));

  std::printf("=== Figure 10: radial RRT across environments, Opteron ===\n");
  bench::ShapeGate gate;
  run_env(env::mixed(0.60), "(a) mixed (60% blocked)", Expect::kWsWins,
          regions, nodes, seed, gate);
  run_env(env::mixed(0.30), "(b) mixed-30 (30% blocked)",
          Expect::kWsWinsRepartLoses, regions, nodes, seed, gate);
  run_env(env::free_env(), "(c) free", Expect::kNoOverhead, regions, nodes,
          seed, gate);
  return gate.exit_code();
}
