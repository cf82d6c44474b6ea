// Figure 3: roadmap node distribution across four processors in an
// imbalanced 2D environment, before and after rebalancing.
//
// The paper's Fig 3(b) shows most roadmap nodes held by two of four
// processors under uniform subdivision; Fig 3(c) shows an even spread after
// load balancing. This harness prints nodes-per-processor for the naive
// mapping and for the repartitioned mapping, plus the CVs.

#include "figure_common.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 256));
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 1 << 14));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  constexpr std::uint32_t kProcs = 4;

  std::printf("=== Figure 3: node distribution before/after rebalancing ===\n");
  const auto e = env::imbalanced_2d();
  const core::RegionGrid grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), regions, /*two_d=*/true);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);

  core::PrmRunConfig cfg;
  cfg.procs = kProcs;
  cfg.strategy = core::Strategy::kNoLB;
  const auto before = core::simulate_prm_run(w, cfg);
  cfg.strategy = core::Strategy::kRepartition;
  const auto after = core::simulate_prm_run(w, cfg);

  TextTable table({"processor", "nodes (before)", "nodes (after)", "ideal"});
  const std::uint64_t total = w.roadmap.num_vertices();
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    table.row()
        .num(static_cast<int>(p))
        .num(before.nodes_per_proc[p])
        .num(after.nodes_per_proc[p])
        .num(total / kProcs);
  }
  table.print();
  std::printf("\nCV of nodes/processor: before=%.3f after=%.3f\n",
              before.cv_nodes_before, after.cv_nodes_after);
  const double speedup =
      before.phases.node_connection_s / after.phases.node_connection_s;
  std::printf("node-connection phase: before=%.3fs after=%.3fs (%.2fx)\n",
              before.phases.node_connection_s, after.phases.node_connection_s,
              speedup);

  // DESIGN.md §4's Fig 3 shape: uniform subdivision leaves two of four
  // ranks empty, and repartitioning evens them out.
  bench::ShapeGate gate;
  gate.expect(before.nodes_per_proc[2] == 0 && before.nodes_per_proc[3] == 0,
              "ranks 2-3 hold no nodes before balancing");
  gate.expect(before.cv_nodes_before >= 0.9, "CV before >= 0.9");
  gate.expect(after.cv_nodes_after <= 0.15, "CV after <= 0.15");
  gate.expect(speedup >= 1.5, "node connection >= 1.5x faster after (" +
                                  bench::ratio_str(speedup) + ")");
  return gate.exit_code();
}
