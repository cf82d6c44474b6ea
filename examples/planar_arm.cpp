// Planar articulated arm: PRM in a 4-dimensional joint space.
//
//   $ planar_arm [--links N] [--attempts N]
//
// A fixed-base arm with N revolute joints must move its end effector from
// one side of a wall slit to the other. Demonstrates the R^n configuration
// space, the articulated-arm validity checker (forward kinematics +
// per-link collision + self-collision), and that the same PRM machinery
// used for rigid bodies applies unchanged.

#include <cmath>
#include <cstdio>
#include <vector>

#include "cspace/validity.hpp"
#include "env/environment.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "util/args.hpp"

using namespace pmpl;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto links = static_cast<std::size_t>(args.get_i64("links", 4, 1));
  const auto attempts =
      static_cast<std::size_t>(args.get_i64("attempts", 6000));
  const auto seed = static_cast<std::uint64_t>(args.get_i64("seed", 21));
  constexpr double kPi = 3.14159265358979323846;

  // Joint space: first joint free, later joints limited (avoids foldback).
  std::vector<std::pair<double, double>> bounds;
  bounds.emplace_back(-kPi, kPi);
  for (std::size_t i = 1; i < links; ++i)
    bounds.emplace_back(-0.8 * kPi, 0.8 * kPi);
  auto space = cspace::CSpace::euclidean(bounds);

  // Workspace: a wall in front of the arm with a slit at mid height.
  std::vector<collision::ObstacleShape> obstacles{
      geo::Aabb{{8, -30, -2}, {11, -4, 2}},  // wall below the slit
      geo::Aabb{{8, 4, -2}, {11, 30, 2}},    // wall above the slit
  };
  env::Environment e("arm-wall", std::move(space), std::move(obstacles),
                     collision::RigidBody::sphere(0.1));

  // The environment's default validity is for its robot model; the arm
  // needs forward kinematics, so plug in the articulated checker.
  std::vector<double> lengths(links, 16.0 / static_cast<double>(links));
  const cspace::PlanarArmValidity arm(e.space(), {0, 0, 0}, lengths, 0.8,
                                      e.checker());

  // PRM over joint space using the arm checker directly.
  planner::Roadmap roadmap;
  planner::PlannerStats stats;
  Xoshiro256ss rng(seed);
  std::vector<graph::VertexId> ids;
  for (std::size_t i = 0; i < attempts; ++i) {
    ++stats.samples_attempted;
    const auto c = e.space().sample(rng);
    if (arm.valid(c, &stats.cd)) ids.push_back(roadmap.add_vertex({c, 0}));
  }
  std::printf("%zu-link arm: %zu of %zu joint samples valid\n", links,
              ids.size(), attempts);

  const cspace::LocalPlanner lp(e.space(), arm, 0.05);
  planner::KdTreeKnn finder(e.space());
  for (const auto id : ids) finder.insert(id, roadmap.vertex(id).cfg);
  graph::UnionFind cc(roadmap.num_vertices());
  for (const auto id : ids) {
    for (const auto& n : finder.nearest(roadmap.vertex(id).cfg, 10, &stats)) {
      if (n.id == id || roadmap.has_edge(id, n.id)) continue;
      if (cc.connected(id, n.id)) continue;
      const auto r = lp.plan(roadmap.vertex(id).cfg,
                             roadmap.vertex(n.id).cfg, &stats.cd);
      if (r.success) {
        roadmap.add_edge(id, n.id, {r.length});
        cc.unite(id, n.id);
      }
    }
  }
  std::printf("joint-space roadmap: %zu vertices, %zu edges\n",
              roadmap.num_vertices(), roadmap.num_edges());

  // Query: arm pointing below the slit -> arm threading through the slit.
  cspace::Config start, goal;
  start.push_back(-0.5 * kPi);  // hanging down
  goal.push_back(0.0);          // toward the wall (through the slit)
  for (std::size_t i = 1; i < links; ++i) {
    start.push_back(0.0);
    goal.push_back(0.0);
  }
  if (!arm.valid(start) || !arm.valid(goal)) {
    std::printf("endpoint configuration invalid — adjust the scene\n");
    return 1;
  }

  // Attach the endpoints with the arm's local planner and search through
  // the planner's overlay query (planner::query_roadmap would attach with
  // the environment's own validity checker); the roadmap is not changed.
  const auto attach = [&](const cspace::Config& c) {
    std::vector<planner::AttachEdge> edges;
    for (const auto& n : finder.nearest(c, 12, &stats))
      if (const auto r = lp.plan(c, roadmap.vertex(n.id).cfg, &stats.cd);
          r.success)
        edges.push_back({n.id, r.length});
    return edges;
  };
  const auto start_edges = attach(start);
  const auto goal_edges = attach(goal);
  const auto path = planner::find_path_with_attachments(
      e, roadmap, start, goal, start_edges, goal_edges);
  if (!path) {
    std::printf("no joint-space path found — increase --attempts\n");
    return 1;
  }
  std::printf("joint-space path: %zu waypoints, cost %.2f rad\n",
              path->size(), planner::path_length(e, *path));
  const auto tip_start = arm.forward_kinematics(start).back();
  const auto tip_goal = arm.forward_kinematics(goal).back();
  std::printf("end effector moves (%.1f, %.1f) -> (%.1f, %.1f) through the "
              "slit\n", tip_start.x, tip_start.y, tip_goal.x, tip_goal.y);
  return 0;
}
