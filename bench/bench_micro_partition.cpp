// Microbenchmarks for the region-graph partitioners and the DES
// work-stealing engine (scheduler overhead per simulated steal).

#include <benchmark/benchmark.h>

#include "loadbal/partition.hpp"
#include "loadbal/ws_engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace pmpl;

struct Instance {
  std::vector<double> weights;
  std::vector<geo::Vec3> centroids;
};

Instance make_instance(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  Instance inst;
  inst.weights.reserve(n);
  inst.centroids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.weights.push_back(rng.uniform(0.1, 10.0));
    inst.centroids.push_back(
        {rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  return inst;
}

void BM_GreedyLpt(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(loadbal::partition_greedy_lpt(inst.weights, 64));
}
BENCHMARK(BM_GreedyLpt)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Sfc(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 3);
  const geo::Aabb bounds{{0, 0, 0}, {100, 100, 100}};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        loadbal::partition_sfc(inst.weights, inst.centroids, bounds, 64));
}
BENCHMARK(BM_Sfc)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WsEngine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(4);
  std::vector<loadbal::WsItem> items(n);
  for (auto& item : items) item = {rng.uniform(1e-4, 1e-2), 1000};
  const auto initial = loadbal::partition_block(n, 64);
  for (auto _ : state) {
    const auto r = loadbal::simulate_work_stealing(items, initial, 64, {});
    benchmark::DoNotOptimize(r.makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WsEngine)->Arg(1000)->Arg(10000);

}  // namespace
