// Fault-resilience bench: makespan degradation of the three victim-selection
// policies under injected crashes, stragglers and a targeted neighbor-death
// scenario, at p = 64 on the hopper cluster model.
//
// Sweeps crash counts {1,2,4,8} and straggler factors {2,4,8} and crashes
// the mesh neighborhood of a hotspot rank — the hypothesis being that
// DIFFUSIVE degrades hardest there, because its entire steal domain around
// the hotspot dies while RAND-K keeps sampling the whole machine.
//
// Emits machine-readable BENCH_faults.json (path overridable as argv[1])
// and prints the degradation table.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "loadbal/ws_engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/topology.hpp"

namespace {

using namespace pmpl;

constexpr std::uint32_t kProcs = 64;
constexpr std::size_t kRegions = 1024;
constexpr std::uint32_t kHotspot = 27;  // center of the 8x8 process mesh

const char* policy_name(loadbal::StealPolicyKind k) {
  switch (k) {
    case loadbal::StealPolicyKind::kRandK: return "rand8";
    case loadbal::StealPolicyKind::kDiffusive: return "diffusive";
    default: return "hybrid";
  }
}

/// Skewed workload: every region costs 1-5 work units, the hotspot rank's
/// regions cost 8x that (the heterogeneous-environment shape that makes
/// load balancing matter in the paper).
std::vector<loadbal::WsItem> make_items(
    const std::vector<std::uint32_t>& initial) {
  std::vector<loadbal::WsItem> items(initial.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].service_s = 1e-4 * (1.0 + static_cast<double>(i % 5));
    if (initial[i] == kHotspot) items[i].service_s *= 8.0;
    items[i].bytes = 512;
  }
  return items;
}

std::vector<std::uint32_t> block_assignment(std::size_t n, std::uint32_t p) {
  std::vector<std::uint32_t> a(n);
  for (std::size_t i = 0; i < n; ++i)
    a[i] = static_cast<std::uint32_t>(i * p / n);
  return a;
}

/// Victim ranks spread evenly across [0, p), skipping the hotspot so the
/// crash sweep measures recovery, not loss of the dominant producer.
std::vector<std::uint32_t> spread_victims(std::uint32_t n) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto r = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * kProcs) / n);
    if (r == kHotspot) ++r;
    out.push_back(r % kProcs);
  }
  return out;
}

struct Row {
  std::string policy;
  std::string scenario;
  double param = 0.0;  ///< crash count / straggler factor / neighbors killed
  double makespan_s = 0.0;
  double degradation = 0.0;
  std::uint64_t regions_recovered = 0;
  double reexecuted_service_s = 0.0;
  double recovery_latency_max_s = 0.0;
  double straggler_delay_s = 0.0;
  std::uint64_t tokens_regenerated = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_faults.json";
  const auto initial = block_assignment(kRegions, kProcs);
  const auto items = make_items(initial);
  const loadbal::StealPolicyKind policies[] = {
      loadbal::StealPolicyKind::kRandK, loadbal::StealPolicyKind::kDiffusive,
      loadbal::StealPolicyKind::kHybrid};
  const std::uint32_t crash_counts[] = {1, 2, 4, 8};
  const double straggler_factors[] = {2.0, 4.0, 8.0};

  std::vector<Row> rows;
  runtime::MetricsRegistry metrics;
  std::printf("%-10s %-16s %7s %11s %12s %10s\n", "policy", "scenario",
              "param", "makespan_s", "degradation", "recovered");
  for (const auto policy : policies) {
    loadbal::WsConfig cfg;
    cfg.policy = policy;
    cfg.cluster = runtime::ClusterSpec::hopper();
    cfg.seed = 11;
    const auto base = loadbal::simulate_work_stealing(items, initial, kProcs,
                                                      cfg);
    if (!base.terminated || base.hit_event_limit) {
      std::fprintf(stderr, "FATAL: fault-free %s run did not terminate\n",
                   policy_name(policy));
      return 1;
    }
    const double base_s = base.makespan_s;
    // Shared-schema "metrics" member: the fault-free DES counters per
    // policy (deterministic for the fixed seed).
    publish(metrics, base, std::string(policy_name(policy)) + "/");

    auto run = [&](const runtime::FaultPlan& plan, const char* scenario,
                   double param) {
      auto fcfg = cfg;
      fcfg.faults = plan;
      const auto r =
          loadbal::simulate_work_stealing(items, initial, kProcs, fcfg);
      if (!r.terminated || r.hit_event_limit) {
        std::fprintf(stderr, "FATAL: %s/%s param=%g did not terminate\n",
                     policy_name(policy), scenario, param);
        std::exit(1);
      }
      Row row;
      row.policy = policy_name(policy);
      row.scenario = scenario;
      row.param = param;
      row.makespan_s = r.makespan_s;
      row.degradation = r.makespan_s / base_s;
      row.regions_recovered = r.faults.regions_recovered;
      row.reexecuted_service_s = r.faults.reexecuted_service_s;
      row.recovery_latency_max_s = r.faults.recovery_latency_max_s;
      row.straggler_delay_s = r.faults.straggler_delay_s;
      row.tokens_regenerated = r.faults.tokens_regenerated;
      rows.push_back(row);
      std::printf("%-10s %-16s %7g %11.5f %12.3f %10llu\n",
                  row.policy.c_str(), scenario, param, row.makespan_s,
                  row.degradation,
                  static_cast<unsigned long long>(row.regions_recovered));
    };

    run(runtime::FaultPlan{}, "fault_free", 0.0);

    // Crash sweep: victims spread across the machine, dying mid-work (the
    // makespan has a termination tail, so half of it is already too late).
    for (const auto k : crash_counts) {
      runtime::FaultPlan plan;
      for (const auto v : spread_victims(k)) plan.crash(v, 0.25 * base_s);
      run(plan, "crash", static_cast<double>(k));
    }

    // Straggler sweep: four spread ranks slow for the whole run.
    for (const auto f : straggler_factors) {
      runtime::FaultPlan plan;
      for (const auto v : spread_victims(4)) plan.straggler(v, f, 0.0, base_s);
      run(plan, "straggler", f);
    }

    // Neighbor death: kill the hotspot's entire mesh neighborhood early,
    // while the hotspot still holds most of its heavy regions.
    {
      const runtime::ProcessMesh mesh(kProcs);
      runtime::FaultPlan plan;
      const auto neighbors = mesh.neighbors(kHotspot);
      for (const auto v : neighbors) plan.crash(v, 0.2 * base_s);
      run(plan, "neighbor_death", static_cast<double>(neighbors.size()));
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_resilience\",\n");
  std::fprintf(f, "  \"procs\": %u,\n  \"regions\": %zu,\n", kProcs, kRegions);
  std::fprintf(f, "  \"hotspot_rank\": %u,\n  \"results\": [\n", kHotspot);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"scenario\": \"%s\", \"param\": %g, "
        "\"makespan_s\": %.6f, \"degradation\": %.4f, "
        "\"regions_recovered\": %llu, \"reexecuted_service_s\": %.6f, "
        "\"recovery_latency_max_s\": %.6f, \"straggler_delay_s\": %.6f, "
        "\"tokens_regenerated\": %llu}%s\n",
        r.policy.c_str(), r.scenario.c_str(), r.param, r.makespan_s,
        r.degradation, static_cast<unsigned long long>(r.regions_recovered),
        r.reexecuted_service_s, r.recovery_latency_max_s, r.straggler_delay_s,
        static_cast<unsigned long long>(r.tokens_regenerated),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n", metrics.to_json().c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Figure-shape gate (EXPERIMENTS.md "Resilience"): losing the hotspot's
  // mesh neighborhood hurts DIFFUSIVE most, since its whole steal domain
  // around the hotspot dies while random probing reaches across.
  auto neighbor_death = [&](const char* policy) {
    for (const Row& r : rows)
      if (r.policy == policy && r.scenario == "neighbor_death")
        return r.degradation;
    return 0.0;
  };
  const double diffusive = neighbor_death("diffusive");
  const double rand8 = neighbor_death("rand8");
  const double hybrid = neighbor_death("hybrid");
  const bool ok = diffusive > rand8 && diffusive > hybrid;
  std::printf("# shape %s: diffusive degrades most under neighbor_death "
              "(%.2f vs rand8 %.2f, hybrid %.2f)\n",
              ok ? "ok" : "FAILED", diffusive, rand8, hybrid);
  return ok ? 0 : 1;
}
