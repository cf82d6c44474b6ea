// Ablation: work-stealing engine knobs.
//
// On a measured med-cube workload at a fixed core count, sweeps:
//   - victim policy (RAND-8, DIFFUSIVE, HYBRID, LIFELINE extension)
//   - steal granularity (regions per grant)
//   - probing persistence (give-up threshold)
// reporting makespan, steal traffic, and the stolen-work fraction.

#include "figure_common.hpp"
#include "loadbal/partition.hpp"

using namespace pmpl;

namespace {

loadbal::WsResult run(const core::Workload& w, std::uint32_t procs,
                      loadbal::WsConfig cfg) {
  std::vector<loadbal::WsItem> items(w.regions.size());
  for (std::size_t r = 0; r < items.size(); ++r)
    items[r] = {w.regions[r].service_s(), w.regions[r].bytes};
  const auto initial = loadbal::partition_block(items.size(), procs);
  return loadbal::simulate_work_stealing(items, initial, procs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto regions =
      static_cast<std::uint32_t>(args.get_i64("regions", 8000));
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 1 << 17));
  const auto procs = static_cast<std::uint32_t>(args.get_i64("procs", 192));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));

  std::printf("=== Ablation: work-stealing knobs (med-cube, p=%u) ===\n",
              procs);
  const auto e = env::med_cube();
  const core::RegionGrid grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), regions, false);
  const auto w = bench::make_prm_workload(*e, grid, attempts, seed);

  std::printf("\n(1) Victim policy (steal 1 region/grant, give up after 3)\n");
  TextTable policies({"policy", "makespan", "requests", "grants",
                      "stolen fraction"});
  for (const auto kind :
       {loadbal::StealPolicyKind::kRandK, loadbal::StealPolicyKind::kDiffusive,
        loadbal::StealPolicyKind::kHybrid,
        loadbal::StealPolicyKind::kLifeline}) {
    loadbal::WsConfig cfg;
    cfg.policy = kind;
    cfg.seed = seed;
    const auto r = run(w, procs, cfg);
    policies.row()
        .cell(loadbal::to_string(kind))
        .num(r.makespan_s, 4)
        .num(r.steal_requests)
        .num(r.steal_grants)
        .num(r.stolen_fraction(), 3);
  }
  policies.print();

  std::printf("\n(2) Steal granularity (HYBRID)\n");
  TextTable granularity({"regions/grant", "makespan", "grants",
                         "regions migrated", "stolen fraction"});
  for (const std::uint32_t g : {1u, 2u, 4u, 8u, 1u << 30}) {
    loadbal::WsConfig cfg;
    cfg.steal_max_items = g;
    cfg.seed = seed;
    const auto r = run(w, procs, cfg);
    granularity.row()
        .cell(g >= (1u << 30) ? "half-queue" : std::to_string(g))
        .num(r.makespan_s, 4)
        .num(r.steal_grants)
        .num(r.regions_migrated)
        .num(r.stolen_fraction(), 3);
  }
  granularity.print();

  std::printf("\n(3) Probing persistence (HYBRID, steal 1)\n");
  TextTable persistence({"give up after", "makespan", "requests",
                         "stolen fraction"});
  for (const std::uint32_t g : {1u, 2u, 3u, 6u, 12u}) {
    loadbal::WsConfig cfg;
    cfg.give_up_after = g;
    cfg.seed = seed;
    const auto r = run(w, procs, cfg);
    persistence.row()
        .num(static_cast<int>(g))
        .num(r.makespan_s, 4)
        .num(r.steal_requests)
        .num(r.stolen_fraction(), 3);
  }
  persistence.print();
  return 0;
}
