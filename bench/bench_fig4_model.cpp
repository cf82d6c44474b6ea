// Figure 4: validation of the analytic model environment (§IV-B).
//
// (a) Coefficient of variation vs processor count:
//       - model imbalance (per-region V_free, naive column mapping)
//       - model best balance (greedy global partition of V_free)
//       - experimental imbalance (# roadmap samples, naive mapping)
//       - experimental after repartitioning (# samples)
// (b) Percentage improvement vs processor count:
//       - theoretical (unit area): reduction of the max-loaded processor's
//         V_free under the best partition
//       - experimental (# samples): reduction of the max nodes/processor
//       - runtime: reduction of the node-connection phase time

#include "figure_common.hpp"
#include "model/model_env.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool full = args.get_bool("full");
  const auto side =
      static_cast<std::uint32_t>(args.get_i64("side", full ? 64 : 40));
  const auto attempts = static_cast<std::size_t>(
      args.get_i64("attempts", full ? (1 << 19) : (1 << 17)));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  const double blocked = args.get_f64("blocked", 0.25);

  std::printf("=== Figure 4: model environment validation ===\n");
  std::printf("# model: unit square, centered square obstacle, blocked=%.2f, "
              "%ux%u regions\n", blocked, side, side);

  const model::ModelEnvironment analytic(blocked, side);
  const auto e = env::model_2d(blocked);
  const core::RegionGrid grid(e->space().position_bounds(), side, side, 1);
  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = attempts;
  wcfg.seed = seed;
  wcfg.prm.resolution = 0.05;
  const auto w = core::build_prm_workload(*e, grid, wcfg);
  std::printf("# experimental roadmap: |V|=%zu |E|=%zu\n",
              w.roadmap.num_vertices(), w.roadmap.num_edges());

  std::printf("\n(a) Coefficient of variation of per-processor load\n");
  TextTable cv_table({"procs", "model naive (Vfree)", "model best (Vfree)",
                      "exp naive (#samples)", "exp repart (#samples)"});
  struct CvRow {
    std::uint32_t p;
    double model_naive, model_best, exp_naive, exp_repart;
  };
  std::vector<CvRow> cvs;
  for (const std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    core::PrmRunConfig cfg;
    cfg.procs = p;
    cfg.strategy = core::Strategy::kRepartition;
    cfg.seed = seed;
    const auto run = core::simulate_prm_run(w, cfg);
    cvs.push_back({p, analytic.cv_naive(p), analytic.cv_best(p),
                   run.cv_nodes_before, run.cv_nodes_after});
    cv_table.row()
        .num(static_cast<int>(p))
        .num(analytic.cv_naive(p), 3)
        .num(analytic.cv_best(p), 3)
        .num(run.cv_nodes_before, 3)
        .num(run.cv_nodes_after, 3);
  }
  cv_table.print();

  std::printf("\n(b) Potential / realized improvement (%%)\n");
  TextTable imp_table({"procs", "theoretical (unit area)",
                       "experimental (#samples)", "runtime (node conn)"});
  struct ImpRow {
    std::uint32_t p;
    double theory_pct, exp_pct;
  };
  std::vector<ImpRow> imps;
  for (const std::uint32_t p : {16u, 32u, 64u, 128u}) {
    core::PrmRunConfig cfg;
    cfg.procs = p;
    cfg.seed = seed;
    cfg.strategy = core::Strategy::kNoLB;
    const auto base = core::simulate_prm_run(w, cfg);
    cfg.strategy = core::Strategy::kRepartition;
    const auto repart = core::simulate_prm_run(w, cfg);

    std::uint64_t base_max = 0, repart_max = 0;
    for (const auto n : base.nodes_per_proc) base_max = std::max(base_max, n);
    for (const auto n : repart.nodes_per_proc)
      repart_max = std::max(repart_max, n);
    const double exp_pct =
        base_max ? 100.0 * (double(base_max) - double(repart_max)) /
                       double(base_max)
                 : 0.0;
    const double run_pct =
        100.0 *
        (base.phases.node_connection_s - repart.phases.node_connection_s) /
        base.phases.node_connection_s;
    imps.push_back({p, analytic.max_load_improvement_pct(p), exp_pct});
    imp_table.row()
        .num(static_cast<int>(p))
        .num(analytic.max_load_improvement_pct(p), 1)
        .num(exp_pct, 1)
        .num(run_pct, 1);
  }
  imp_table.print();
  std::printf(
      "\n# expectation: the experimental series tracks the model; the\n"
      "# achievable improvement shrinks as regions/processor shrink.\n");

  // DESIGN.md §4's Fig 4 shapes: the naive model tracks the experiment,
  // repartitioning beats naive wherever there is imbalance to remove and
  // approaches the best-partition model, and the realized improvement
  // tracks the theoretical one.
  bench::ShapeGate gate;
  for (const CvRow& r : cvs) {
    const std::string at = " at p=" + std::to_string(r.p);
    gate.expect(std::abs(r.model_naive - r.exp_naive) <= 0.01,
                "model and experiment naive CVs within 0.01" + at);
    if (r.p >= 4)
      gate.expect(r.exp_repart < r.exp_naive,
                  "repartitioned CV below naive" + at);
    gate.expect(std::abs(r.exp_repart - r.model_best) <= 0.01,
                "repartitioned CV within 0.01 of the best-partition model" +
                    at);
  }
  for (const ImpRow& r : imps)
    gate.expect(std::abs(r.exp_pct - r.theory_pct) <= 2.0,
                "experimental improvement within 2 points of theoretical at "
                "p=" + std::to_string(r.p));
  return gate.exit_code();
}
