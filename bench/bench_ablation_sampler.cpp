// Ablation: node-generation strategy in a narrow-passage environment.
//
// The walls environment concentrates the planning difficulty in small
// passage volumes. Uniform sampling wastes attempts in open space;
// Gaussian sampling concentrates nodes near C-obstacle surfaces; the
// bridge test concentrates them inside the passages. Reports acceptance
// rate, roadmap connectivity (fraction of nodes in the largest connected
// component — the quantity that decides whether queries succeed), and
// sampling cost.

#include <algorithm>

#include "figure_common.hpp"
#include "graph/union_find.hpp"
#include "planner/prm.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 24000, 1));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));

  std::printf("=== Ablation: sampling strategy (walls environment) ===\n");
  const auto e = env::walls(false);

  TextTable table({"sampler", "kept", "accept %", "roadmap edges",
                   "largest CC %", "CD queries"});
  struct Case {
    const char* name;
    planner::SamplerKind kind;
    double scale;
  };
  for (const Case c : {Case{"uniform", planner::SamplerKind::kUniform, 0.0},
                       Case{"gaussian(6)", planner::SamplerKind::kGaussian,
                            6.0},
                       Case{"bridge(18)", planner::SamplerKind::kBridgeTest,
                            18.0}}) {
    planner::PrmParams params;
    params.k_neighbors = 8;
    params.sampler = c.kind;
    params.sampler_scale = c.scale;
    planner::Prm prm(*e, params);
    prm.build(attempts, seed);
    const auto& g = prm.roadmap();

    auto cc = graph::components_of(g);
    std::size_t largest = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      largest = std::max(largest, cc.component_size(v));
    const double largest_fraction =
        g.num_vertices() == 0 ? 0.0
                              : static_cast<double>(largest) /
                                    static_cast<double>(g.num_vertices());

    table.row()
        .cell(c.name)
        .num(static_cast<std::uint64_t>(g.num_vertices()))
        .num(100.0 * static_cast<double>(prm.stats().samples_valid) /
                 static_cast<double>(prm.stats().samples_attempted),
             1)
        .num(static_cast<std::uint64_t>(g.num_edges()))
        .num(100.0 * largest_fraction, 1)
        .num(prm.stats().cd.queries);
  }
  table.print();
  std::printf(
      "\n# obstacle-aware samplers pay more CD per kept node and keep far\n"
      "# fewer nodes per attempt budget, concentrating them near surfaces\n"
      "# and passages; on an equal-attempt budget alone they lose global\n"
      "# connectivity — which is why practical planners mix them with\n"
      "# uniform sampling rather than replacing it.\n");
  return 0;
}
