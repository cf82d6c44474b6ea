// Microbenchmarks for k-nearest-neighbor search: kd-tree vs brute force —
// the classic parallel-PRM bottleneck that subdivision avoids.

#include <benchmark/benchmark.h>

#include "planner/knn.hpp"
#include "util/rng.hpp"

namespace {

using namespace pmpl;

template <class Finder>
void fill(Finder& finder, const cspace::CSpace& space, std::size_t n,
          std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    finder.insert(static_cast<graph::VertexId>(i), space.sample(rng));
}

void BM_KdTreeQuery(benchmark::State& state) {
  const auto space = cspace::CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  planner::KdTreeKnn tree(space);
  fill(tree, space, static_cast<std::size_t>(state.range(0)), 1);
  Xoshiro256ss rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(tree.nearest(space.sample(rng), 6));
}
BENCHMARK(BM_KdTreeQuery)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BruteForceQuery(benchmark::State& state) {
  const auto space = cspace::CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  planner::BruteForceKnn brute(space);
  fill(brute, space, static_cast<std::size_t>(state.range(0)), 1);
  Xoshiro256ss rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(brute.nearest(space.sample(rng), 6));
}
BENCHMARK(BM_BruteForceQuery)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KdTreeInsert(benchmark::State& state) {
  const auto space = cspace::CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    planner::KdTreeKnn tree(space);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i)
      tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeInsert)->Arg(1000)->Arg(10000);

}  // namespace
