// Hot-path kernel bench: the shipping k-NN, edge-validation and wide
// validity kernels, each checked against its reference on the same inputs.
//
//  - k-NN: the bucketed SoA kd-tree against BruteForceKnn (neighbor ids
//    and distances bit-for-bit), plus the candidates each one visits.
//  - Edge validation: LocalPlanner throughput on valid-endpoint edges.
//  - Wide validity: the per-pose sequential batch sweep (the pre-SIMD
//    first_collision) vs the SoA block path at the best dispatch level,
//    with identical verdicts, PRM roadmap hashes and ValidityStats across
//    SIMD levels.
//
// Optimization may only change speed, never answers; the golden roadmap
// hashes in test_hotpath pin the kernels' results. Emits BENCH_hotpath.json
// (path overridable as argv[1]; --quick shrinks sizes for CI). Exits
// nonzero if the kd-tree disagrees with brute force or stops pruning, or
// (--quick, wide kernels available) the wide validity path falls under
// the 1.5x gate against the sequential sweep.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cspace/local_planner.hpp"
#include "cspace/validity.hpp"
#include "env/builders.hpp"
#include "geometry/pose_block.hpp"
#include "geometry/simd.hpp"
#include "planner/knn.hpp"
#include "planner/prm.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace pmpl;

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t roadmap_hash(const planner::Roadmap& g) {
  std::uint64_t h = 14695981039346656037ull;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& vert = g.vertex(v);
    for (std::size_t i = 0; i < vert.cfg.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &vert.cfg[i], sizeof bits);
      h = fnv1a(h, &bits, sizeof bits);
    }
    for (const auto& e : g.edges_of(v)) {
      h = fnv1a(h, &e.to, sizeof e.to);
      std::uint64_t bits;
      std::memcpy(&bits, &e.prop.length, sizeof bits);
      h = fnv1a(h, &bits, sizeof bits);
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_hotpath.json";
  ArgParser args(argc, argv);
  const bool quick = args.has("quick");
  const auto points =
      static_cast<std::size_t>(args.get_i64("points", quick ? 2000 : 6000, 8));
  const auto queries =
      static_cast<std::size_t>(args.get_i64("queries", quick ? 1500 : 6000, 1));
  const auto edges =
      static_cast<std::size_t>(args.get_i64("edges", quick ? 200 : 800, 1));
  const std::size_t k = 6;

  const auto e = env::med_cube();
  const cspace::CSpace& space = e->space();
  Xoshiro256ss rng(97);

  // --- k-NN ---------------------------------------------------------------
  planner::KdTreeKnn tree(space);
  planner::BruteForceKnn brute(space);
  for (std::size_t i = 0; i < points; ++i) {
    const cspace::Config c = space.sample(rng);
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  std::vector<cspace::Config> knn_queries;
  knn_queries.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q)
    knn_queries.push_back(space.sample(rng));

  // Correctness + visited-candidate accounting (untimed pass).
  planner::PlannerStats kd_stats, brute_stats;
  for (const auto& q : knn_queries) {
    const auto fresh = tree.nearest(q, k, &kd_stats);
    const auto exact = brute.nearest(q, k, &brute_stats);
    if (fresh.size() != exact.size()) {
      std::fprintf(stderr, "FAIL: k-NN result size mismatch\n");
      return 1;
    }
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (fresh[i].id != exact[i].id ||
          fresh[i].distance != exact[i].distance) {
        std::fprintf(stderr, "FAIL: k-NN results differ at rank %zu\n", i);
        return 1;
      }
    }
  }

  // Timed pass (single-threaded wall clock; checksum defeats DCE).
  double checksum = 0.0;
  WallTimer t_knn;
  for (const auto& q : knn_queries)
    checksum += tree.nearest(q, k).front().distance;
  const double qps = static_cast<double>(queries) / t_knn.elapsed_s();

  const auto kd_visited = kd_stats.knn_candidates;
  const auto brute_visited = brute_stats.knn_candidates;
  std::printf("knn: %zu pts, %zu queries, k=%zu | %.0f q/s | visited kd "
              "%llu vs brute %llu (checksum %g)\n",
              points, queries, k, qps,
              static_cast<unsigned long long>(kd_visited),
              static_cast<unsigned long long>(brute_visited), checksum);

  // --- edge validation ----------------------------------------------------
  const auto& validity =
      dynamic_cast<const cspace::RigidBodyValidity&>(e->validity());
  const cspace::LocalPlanner lp(space, validity, 1.0);

  std::vector<std::pair<cspace::Config, cspace::Config>> edge_set;
  while (edge_set.size() < edges) {
    cspace::Config a = space.sample(rng);
    cspace::Config b = space.sample(rng);
    if (validity.valid(a) && validity.valid(b))
      edge_set.emplace_back(std::move(a), std::move(b));
  }
  WallTimer t_edges;
  std::size_t accepted = 0;
  for (const auto& [a, b] : edge_set) accepted += lp.plan(a, b).success;
  const double eps = static_cast<double>(edges) / t_edges.elapsed_s();
  std::printf("edges: %zu (%zu accepted) | %.0f e/s\n", edges, accepted, eps);

  // --- wide validity kernels ----------------------------------------------
  // Workload: blocks of interpolated edge-interior poses between valid
  // endpoints — exactly what the connection phase feeds the checker. The
  // connection phase links k-nearest neighbors, so candidate edges are
  // short; endpoints are clamped to that regime. The mix still spans
  // fully-free edges (all 16 poses checked) and blocked ones (early
  // first-collision exits), so both paths get their best cases.
  const geo::SimdLevel best_level = geo::detected_simd_level();
  const auto blocks_n =
      static_cast<std::size_t>(args.get_i64("blocks", quick ? 1500 : 6000, 8));
  const auto& checker = e->checker();
  const auto& robot = validity.robot();
  std::vector<geo::PoseBlock> blocks(blocks_n);
  std::vector<std::vector<geo::Transform>> spans(blocks_n);
  for (std::size_t bi = 0; bi < blocks_n; ++bi) {
    cspace::Config ea, eb;
    do {
      ea = space.sample(rng);
    } while (!validity.valid(ea));
    constexpr double kEdgeLen = 15.0;  // ~the k-NN connection radius
    do {
      const cspace::Config far = space.sample(rng);
      const double d = space.distance(ea, far);
      eb = d <= kEdgeLen ? far : space.interpolate(ea, far, kEdgeLen / d);
    } while (!validity.valid(eb));
    const double steps = static_cast<double>(geo::PoseBlock::kCapacity) + 1.0;
    for (std::size_t i = 0; i < geo::PoseBlock::kCapacity; ++i) {
      const geo::Transform t =
          space.pose(space.interpolate(ea, eb, (static_cast<double>(i) + 1.0) / steps));
      blocks[bi].push(t);
      spans[bi].push_back(t);
    }
  }

  // Correctness: block verdicts and consumed-query counts equal the
  // per-pose sequential sweep at every supported dispatch level.
  for (std::size_t bi = 0; bi < blocks_n; ++bi) {
    collision::CollisionStats seq;
    const std::size_t ref =
        checker.first_collision_sequential(robot, spans[bi], &seq);
    for (int lv = 0; lv <= static_cast<int>(best_level); ++lv) {
      geo::set_simd_level(static_cast<geo::SimdLevel>(lv));
      collision::CollisionStats bs;
      if (checker.first_collision(robot, blocks[bi], &bs) != ref ||
          bs.queries != seq.queries) {
        std::fprintf(stderr, "FAIL: wide verdicts differ at level %s\n",
                     to_string(static_cast<geo::SimdLevel>(lv)));
        return 1;
      }
    }
  }

  // Roadmaps and ValidityStats must be bitwise-identical across levels.
  std::uint64_t map_hash = 0;
  cspace::ValidityStats vstats_ref;
  for (int lv = 0; lv <= static_cast<int>(best_level); ++lv) {
    geo::set_simd_level(static_cast<geo::SimdLevel>(lv));
    planner::Prm prm(*e);
    prm.build(quick ? 800 : 2000, 42);
    const std::uint64_t h = roadmap_hash(prm.roadmap());
    cspace::ValidityStats vs;
    Xoshiro256ss vrng(7);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<cspace::Config> cs;
      for (int i = 0; i < 12; ++i) cs.push_back(space.sample(vrng));
      e->validity().valid_batch_counted(cs, vs);
    }
    if (lv == 0) {
      map_hash = h;
      vstats_ref = vs;
    } else if (h != map_hash || vs.checks != vstats_ref.checks ||
               vs.hits != vstats_ref.hits) {
      std::fprintf(stderr,
                   "FAIL: roadmap hash or ValidityStats differ at level %s\n",
                   to_string(static_cast<geo::SimdLevel>(lv)));
      return 1;
    }
  }

  // Timed passes: per-pose sequential sweep (the pre-SIMD batch) vs the
  // block path at scalar and at the best level. Best-of-N per variant:
  // single passes on a shared box are scheduler-noise-limited, and the
  // minimum is the honest per-path cost.
  const auto time_blocks = [&](bool sequential) {
    double best_s = 0.0;
    std::size_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
      std::size_t rep_sink = 0;
      WallTimer t;
      for (std::size_t bi = 0; bi < blocks_n; ++bi)
        rep_sink += sequential
                        ? checker.first_collision_sequential(robot, spans[bi])
                        : checker.first_collision(robot, blocks[bi]);
      const double s = t.elapsed_s();
      if (rep == 0 || s < best_s) best_s = s;
      sink = rep_sink;
    }
    return std::pair<double, std::size_t>{best_s, sink};
  };
  geo::set_simd_level(geo::SimdLevel::kScalar);
  const auto [seq_s, seq_sink] = time_blocks(true);
  const auto [scalar_s, scalar_sink] = time_blocks(false);
  geo::set_simd_level(best_level);
  const auto [wide_s, wide_sink] = time_blocks(false);
  if (seq_sink != scalar_sink || scalar_sink != wide_sink) {
    std::fprintf(stderr, "FAIL: timed wide passes disagree on verdicts\n");
    return 1;
  }
  const double poses =
      static_cast<double>(blocks_n * geo::PoseBlock::kCapacity);
  const double seq_pps = poses / seq_s;
  const double scalar_pps = poses / scalar_s;
  const double wide_pps = poses / wide_s;
  const double wide_speedup = wide_pps / seq_pps;
  std::printf("simd: %zu blocks x %zu poses | sequential %.0f p/s, block "
              "scalar %.0f p/s, block %s %.0f p/s -> %.2fx vs sequential "
              "(sink %zu)\n",
              blocks_n, geo::PoseBlock::kCapacity, seq_pps, scalar_pps,
              to_string(best_level), wide_pps, wide_speedup, wide_sink);

  // --- report -------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"hotpath\",\n  \"quick\": %s,\n"
      "  \"knn\": {\n"
      "    \"points\": %zu,\n    \"queries\": %zu,\n    \"k\": %zu,\n"
      "    \"qps\": %.1f,\n"
      "    \"kd_visited_candidates\": %llu,\n"
      "    \"brute_visited_candidates\": %llu\n  },\n"
      "  \"edges\": {\n"
      "    \"count\": %zu,\n    \"accepted\": %zu,\n"
      "    \"eps\": %.1f\n  },\n"
      "  \"simd\": {\n"
      "    \"level\": \"%s\",\n    \"blocks\": %zu,\n"
      "    \"lanes\": %zu,\n"
      "    \"sequential_pps\": %.1f,\n    \"scalar_block_pps\": %.1f,\n"
      "    \"wide_pps\": %.1f,\n    \"speedup\": %.3f,\n"
      "    \"roadmap_hash\": %llu\n  }\n}\n",
      quick ? "true" : "false", points, queries, k, qps,
      static_cast<unsigned long long>(kd_visited),
      static_cast<unsigned long long>(brute_visited), edges, accepted, eps,
      to_string(best_level), blocks_n, geo::kWideLanes, seq_pps, scalar_pps,
      wide_pps, wide_speedup, static_cast<unsigned long long>(map_hash));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (kd_visited > brute_visited) {
    std::fprintf(stderr,
                 "FAIL: kd-tree visited %llu candidates, brute force would "
                 "visit %llu — the tree is not pruning\n",
                 static_cast<unsigned long long>(kd_visited),
                 static_cast<unsigned long long>(brute_visited));
    return 1;
  }
  // Wide-kernel speedup gate (CI runs --quick). Skipped when the build or
  // CPU offers no wide path — the scalar fallback has nothing to beat.
  if (quick) {
    if (best_level == geo::SimdLevel::kScalar) {
      std::fprintf(stderr,
                   "warning: no SIMD level available, speedup gate skipped\n");
    } else if (wide_speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: wide validity kernel %.2fx vs the scalar batch — "
                   "gate is 1.5x\n",
                   wide_speedup);
      return 1;
    }
  }
  return 0;
}
