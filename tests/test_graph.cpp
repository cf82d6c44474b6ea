// Tests for graph/: adjacency graph, union-find, component labelling, tree
// utilities.

#include <gtest/gtest.h>

#include "graph/adjacency_graph.hpp"
#include "graph/tree_utils.hpp"
#include "graph/union_find.hpp"
#include "util/rng.hpp"

namespace pmpl::graph {
namespace {

struct VP {
  int tag = 0;
};
struct EP {
  double w = 1.0;
};
using G = AdjacencyGraph<VP, EP>;

// --- AdjacencyGraph -----------------------------------------------------

TEST(Graph, AddVerticesAndEdges) {
  G g;
  const auto a = g.add_vertex({1});
  const auto b = g.add_vertex({2});
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_TRUE(g.add_edge(a, b, {3.0}));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
}

TEST(Graph, RejectsDuplicateAndSelfEdges) {
  G g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  EXPECT_TRUE(g.add_edge(a, b));
  EXPECT_FALSE(g.add_edge(a, b));
  EXPECT_FALSE(g.add_edge(b, a));
  EXPECT_FALSE(g.add_edge(a, a));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, EdgePropertiesStoredBothDirections) {
  G g;
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  g.add_edge(a, b, {2.5});
  EXPECT_DOUBLE_EQ(g.edges_of(a)[0].prop.w, 2.5);
  EXPECT_DOUBLE_EQ(g.edges_of(b)[0].prop.w, 2.5);
}

TEST(Graph, VertexPayloadMutable) {
  G g;
  const auto a = g.add_vertex({5});
  g.vertex(a).tag = 9;
  EXPECT_EQ(g.vertex(a).tag, 9);
}

// --- UnionFind ------------------------------------------------------------

TEST(UnionFind, InitiallySingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_components(), 5u);
  EXPECT_FALSE(uf.connected(0, 1));
}

TEST(UnionFind, UniteMergesComponents) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already together
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_EQ(uf.num_components(), 3u);
  EXPECT_EQ(uf.component_size(1), 3u);
}

TEST(UnionFind, RandomizedAgainstLabelPropagation) {
  Xoshiro256ss rng(41);
  constexpr std::size_t kN = 200;
  UnionFind uf(kN);
  std::vector<std::uint32_t> label(kN);
  for (std::size_t i = 0; i < kN; ++i) label[i] = static_cast<std::uint32_t>(i);
  for (int ops = 0; ops < 300; ++ops) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_u64(kN));
    const auto b = static_cast<std::uint32_t>(rng.uniform_u64(kN));
    uf.unite(a, b);
    const auto la = label[a], lb = label[b];
    if (la != lb)
      for (auto& l : label)
        if (l == lb) l = la;
  }
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = i + 1; j < kN; ++j)
      EXPECT_EQ(uf.connected(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j)),
                label[i] == label[j]);
}

// --- tree utils -------------------------------------------------------------

TEST(TreeUtils, ForestPathFindsUniquePath) {
  G g;
  std::vector<VertexId> v;
  for (int i = 0; i < 6; ++i) v.push_back(g.add_vertex());
  // Path tree: 0-1-2-3, branch 1-4, isolated 5.
  g.add_edge(v[0], v[1]);
  g.add_edge(v[1], v[2]);
  g.add_edge(v[2], v[3]);
  g.add_edge(v[1], v[4]);
  const auto path = forest_path(g, v[0], v[3]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<VertexId>{v[0], v[1], v[2], v[3]}));
  EXPECT_FALSE(forest_path(g, v[0], v[5]).has_value());
}

TEST(TreeUtils, IsForestDetectsCycle) {
  G g;
  std::vector<VertexId> v;
  for (int i = 0; i < 3; ++i) v.push_back(g.add_vertex());
  g.add_edge(v[0], v[1]);
  g.add_edge(v[1], v[2]);
  EXPECT_TRUE(is_forest(g));
  g.add_edge(v[2], v[0]);
  EXPECT_FALSE(is_forest(g));
}

/// Reference cycle check: a depth-first search that meets an already
/// visited vertex other than its parent has closed a cycle.
bool has_cycle_dfs(const G& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<std::pair<VertexId, VertexId>> stack;  // (vertex, parent)
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    stack.push_back({root, kInvalidVertex});
    while (!stack.empty()) {
      const auto [u, parent] = stack.back();
      stack.pop_back();
      for (const auto& e : g.edges_of(u)) {
        if (e.to == parent) continue;
        if (seen[e.to]) return true;
        seen[e.to] = true;
        stack.push_back({e.to, u});
      }
    }
  }
  return false;
}

TEST(TreeUtils, IsForestMatchesDfsOnRandomGraphs) {
  Xoshiro256ss rng(43);
  std::size_t forests = 0, cyclic = 0;
  for (int trial = 0; trial < 30; ++trial) {
    G g;
    const std::size_t n = 2 + rng.index(20);
    for (std::size_t i = 0; i < n; ++i) g.add_vertex();
    for (std::size_t i = 0; i < n; ++i) {
      const auto a = static_cast<VertexId>(rng.index(n));
      const auto b = static_cast<VertexId>(rng.index(n));
      if (!g.add_edge(a, b)) continue;  // self-loop or duplicate
      const bool forest = is_forest(g);
      ASSERT_EQ(forest, !has_cycle_dfs(g))
          << "trial " << trial << " edge " << g.num_edges();
      ++(forest ? forests : cyclic);
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(forests, 0u);
  EXPECT_GT(cyclic, 0u);
}

// --- components --------------------------------------------------------------

TEST(Components, LabelsAndSummary) {
  // Components {0,1,2}, {3,4} and the isolated vertices 5 and 6.
  G g;
  for (int i = 0; i < 7; ++i) g.add_vertex();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  auto cc = components_of(g);
  EXPECT_EQ(cc.size(), 7u);
  EXPECT_EQ(cc.num_components(), 4u);
  EXPECT_TRUE(cc.connected(0, 2));
  EXPECT_TRUE(cc.connected(3, 4));
  EXPECT_FALSE(cc.connected(0, 3));
  EXPECT_FALSE(cc.connected(5, 6));
  EXPECT_EQ(cc.component_size(2), 3u);
  EXPECT_EQ(cc.component_size(4), 2u);
  EXPECT_EQ(cc.component_size(5), 1u);
  EXPECT_EQ(cc.component_size(6), 1u);
}

TEST(Components, EmptyGraph) {
  const auto cc = components_of(G{});
  EXPECT_EQ(cc.size(), 0u);
  EXPECT_EQ(cc.num_components(), 0u);
}

}  // namespace
}  // namespace pmpl::graph
