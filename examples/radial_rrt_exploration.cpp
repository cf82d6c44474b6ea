// Radial-subdivision RRT exploration (Algorithm 2) in a cluttered
// environment, with the paper's load-balancing strategies compared on the
// measured workload.
//
//   $ radial_rrt_exploration [--regions N] [--nodes N] [--procs P]
//
// Builds the radial region graph, grows one biased RRT branch per region,
// connects adjacent branches (pruning cycles), and reports how the
// branch-growth load would schedule across a cluster under no LB, work
// stealing, and k-rays repartitioning.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/rrt_driver.hpp"
#include "env/builders.hpp"
#include "graph/tree_utils.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 512, 1, kMaxU32));
  const auto nodes =
      static_cast<std::size_t>(args.get_i64("nodes", 10000, 1));
  const auto procs =
      static_cast<std::uint32_t>(args.get_i64("procs", 16, 1, kMaxU32));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 3));

  const auto e = env::mixed(0.60);
  std::printf("environment: %s (%.0f%% blocked), %u radial regions\n",
              e->name().c_str(), 100.0 * e->blocked_fraction(), regions);

  const geo::Vec3 root_pos{50, 50, 50};
  const core::RadialRegions radial(root_pos, 45.0, regions, 4, seed, false);
  Xoshiro256ss rng(seed);
  const auto root = e->space().at_position(root_pos, rng);

  core::RrtWorkloadConfig wcfg;
  wcfg.total_nodes = nodes;
  wcfg.seed = seed;
  const auto w = core::build_rrt_workload(*e, radial, root, wcfg);
  std::printf("tree: %zu nodes, %zu edges, forest: %s\n",
              w.roadmap.num_vertices(), w.roadmap.num_edges(),
              graph::is_forest(w.roadmap) ? "yes" : "NO");

  // Branch size distribution shows the obstacle-driven heterogeneity.
  auto sizes = w.sample_counts();
  std::sort(sizes.rbegin(), sizes.rend());
  const auto times = w.build_times();
  std::printf("branch nodes: max=%u median=%u min=%u; branch work CV=%.2f\n",
              sizes.front(), sizes[sizes.size() / 2], sizes.back(),
              summarize(times).cv());

  TextTable table({"strategy", "makespan (sim s)", "speedup", "CV after"});
  double base = 0.0;
  for (const auto s :
       {core::Strategy::kNoLB, core::Strategy::kDiffusiveWS,
        core::Strategy::kHybridWS, core::Strategy::kRand8WS,
        core::Strategy::kRepartition}) {
    core::RrtRunConfig cfg;
    cfg.procs = procs;
    cfg.strategy = s;
    cfg.seed = seed;
    const auto r = core::simulate_rrt_run(w, *e, radial, cfg);
    if (s == core::Strategy::kNoLB) base = r.total_s;
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", base / r.total_s);
    table.row()
        .cell(s == core::Strategy::kRepartition ? "Repart (k-rays)"
                                                : core::to_string(s))
        .num(r.total_s, 3)
        .cell(speedup)
        .num(r.cv_nodes_after, 3);
  }
  table.print();
  std::printf(
      "\nNote the k-rays repartitioning row: its weight probe correlates\n"
      "poorly with true branch cost, so it can lose to no LB entirely —\n"
      "the paper's argument for work stealing on RRT workloads.\n");
  return 0;
}
