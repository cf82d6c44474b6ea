// Ablation: which partitioner should the repartitioning strategy use?
//
// On a measured med-cube workload, compares the naive block mapping,
// greedy LPT (balance only, the Fig 4 best-partition model) and the
// space-filling-curve split the drivers repartition with, across the
// metrics that matter: node-connection makespan (balance), region-graph
// edge cut (communication) and migration volume (redistribution cost).
// Exits 1 naming any trade-off shape the numbers miss.

#include "figure_common.hpp"
#include "core/region_weight.hpp"
#include "loadbal/partition.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 8000));
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 1 << 17));
  const auto procs = static_cast<std::uint32_t>(args.get_i64("procs", 128));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));

  std::printf("=== Ablation: partitioner choice (med-cube, p=%u) ===\n",
              procs);
  const auto e = env::med_cube();
  const core::RegionGrid grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), regions, false);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);

  const auto naive = loadbal::partition_block(grid.size(), procs);
  const auto weights = core::weights_from_sample_counts(w.sample_counts());
  const auto bytes = w.region_bytes();

  struct Candidate {
    const char* name;
    loadbal::Assignment assignment;
    double makespan = 0.0, cv = 0.0;
    std::uint64_t cut = 0;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"block (naive)", naive});
  candidates.push_back(
      {"greedy LPT", loadbal::partition_greedy_lpt(weights, procs)});
  candidates.push_back(
      {"SFC (Morton)",
       loadbal::partition_sfc(weights, w.centroids(), w.bounds, procs)});

  const auto build = w.build_times();
  TextTable table({"partitioner", "node-conn makespan", "CV (work)",
                   "edge cut", "regions moved", "migration MB"});
  for (auto& c : candidates) {
    c.makespan = loadbal::makespan(build, c.assignment, procs);
    c.cv = loadbal::load_cv(build, c.assignment, procs);
    c.cut = loadbal::edge_cut(w.region_edges, c.assignment);
    const auto mv = loadbal::migration_volume(bytes, naive, c.assignment,
                                              procs);
    table.row()
        .cell(c.name)
        .num(c.makespan, 4)
        .num(c.cv, 3)
        .num(c.cut)
        .num(static_cast<std::uint64_t>(mv.items_moved))
        .num(static_cast<double>(mv.total) / (1 << 20), 2);
  }
  table.print();
  std::printf(
      "\n# takeaway: LPT balances best but shreds locality (the largest\n"
      "# edge cut); the curve split balances nearly as well at the lowest\n"
      "# cut — the \"preserve the spatial geometry\" trade-off of paper\n"
      "# §III-B, and why the drivers repartition with it.\n");

  const Candidate& block = candidates[0];
  const Candidate& lpt = candidates[1];
  const Candidate& sfc = candidates[2];
  bench::ShapeGate gate;
  gate.expect(lpt.makespan < block.makespan && lpt.makespan < sfc.makespan,
              "greedy LPT has the lowest makespan");
  gate.expect(sfc.cut < block.cut && sfc.cut < lpt.cut,
              "SFC's edge cut is below block's and LPT's");
  gate.expect(sfc.cv < block.cv, "SFC's work CV is below block's");
  return gate.exit_code();
}
