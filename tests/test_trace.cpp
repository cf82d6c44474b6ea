// Tracing & metrics layer: ring-buffer semantics (wraparound, exact drop
// counts), span nesting, the Chrome-trace exporter (valid JSON that
// round-trips event counts), MetricsRegistry determinism and kind safety,
// the publish helpers, and the two end-to-end contracts: tracing disabled
// produces zero events and a bit-identical roadmap, and the "phases"
// virtual track of a DES replay reproduces its PhaseBreakdown exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_build.hpp"
#include "core/prm_driver.hpp"
#include "env/builders.hpp"
#include "loadbal/metrics.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "runtime/work_units.hpp"
#include "util/json_mini.hpp"

namespace {

using namespace pmpl;
using runtime::TraceBuffer;
using runtime::TraceEvent;
using runtime::Tracer;
using runtime::TraceType;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (!f) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// ---------------------------------------------------------------- ring

TEST(TraceBuffer, WraparoundKeepsNewestAndCountsDropsExactly) {
  TraceBuffer buf("ring", 8);
  for (std::uint64_t i = 0; i < 20; ++i)
    buf.instant_at("e", static_cast<double>(i), i);
  EXPECT_EQ(buf.total(), 20u);
  EXPECT_EQ(buf.dropped(), 12u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 12u + i);  // oldest retained first
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(12 + i));
  }
}

TEST(TraceBuffer, NoDropsUnderCapacity) {
  TraceBuffer buf("ring", 8);
  for (std::uint64_t i = 0; i < 5; ++i) buf.instant_at("e", 0.0, i);
  EXPECT_EQ(buf.total(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.snapshot().size(), 5u);
}

TEST(TraceBuffer, EventIs32Bytes) {
  EXPECT_EQ(sizeof(TraceEvent), 32u);
}

// ---------------------------------------------------------------- spans

TEST(TraceSpan, NestingIsWellFormed) {
  Tracer tracer;
  TraceBuffer* buf = tracer.track("spans");
  {
    runtime::TraceSpan outer(&tracer, buf, "outer", 1);
    {
      runtime::TraceSpan inner(&tracer, buf, "inner", 2);
    }
    {
      runtime::TraceSpan inner2(&tracer, buf, "inner2", 3);
    }
  }
  const auto events = buf->snapshot();
  ASSERT_EQ(events.size(), 6u);
  // Balanced: depth never negative, ends in LIFO order, final depth zero.
  std::vector<const char*> stack;
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceType::kBegin) {
      stack.push_back(ev.name);
    } else if (ev.type == TraceType::kEnd) {
      ASSERT_FALSE(stack.empty());
      EXPECT_STREQ(stack.back(), ev.name);
      stack.pop_back();
    }
    EXPECT_GE(ev.t, 0.0);
  }
  EXPECT_TRUE(stack.empty());
}

TEST(TraceSpan, NullBufferIsANoOp) {
  Tracer tracer;
  runtime::TraceSpan span(&tracer, nullptr, "nothing");
  EXPECT_EQ(tracer.total_events(), 0u);
}

TEST(Tracer, ThreadTrackCacheDoesNotOutliveTracer) {
  // The per-thread track cache is keyed by tracer id, not address: a new
  // tracer (even one reusing the old one's storage) must hand out its own
  // fresh track rather than a dangling cached pointer.
  {
    Tracer first;
    first.thread_track("first")->instant_at("a", 0.0);
    EXPECT_EQ(first.total_events(), 1u);
  }
  Tracer second;
  TraceBuffer* t = second.thread_track("second");
  t->instant_at("b", 0.0);
  ASSERT_EQ(second.tracks().size(), 1u);
  EXPECT_EQ(second.tracks()[0], t);
  EXPECT_EQ(second.total_events(), 1u);
}

// ---------------------------------------------------------------- export

TEST(ChromeExport, ParsesAsJsonAndRoundTripsEventCounts) {
  Tracer tracer;
  TraceBuffer* a = tracer.track("alpha");
  TraceBuffer* b = tracer.track("beta \"quoted\"");
  a->begin_at("work", 0.001, 7);
  a->begin_at("sub", 0.002);
  a->end_at("sub", 0.003);
  a->end_at("work", 0.004);
  a->instant_at("mark", 0.005, 42);
  a->counter_at("queue", 0.006, 9);
  b->instant_at("x", 0.5);
  b->instant_at("y", 1.5);

  const std::string path = temp_path("trace_roundtrip.json");
  ASSERT_TRUE(export_chrome_trace(tracer, path));

  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(read_file(path), root, &err)) << err;
  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // 2 metadata events (one per track) + 8 payload events.
  std::map<std::string, int> by_ph;
  for (const auto& ev : events->as_array()) {
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ++by_ph[ph->as_string()];
  }
  EXPECT_EQ(by_ph["M"], 2);
  EXPECT_EQ(by_ph["B"], 2);
  EXPECT_EQ(by_ph["E"], 2);
  EXPECT_EQ(by_ph["i"], 3);
  EXPECT_EQ(by_ph["C"], 1);
  EXPECT_EQ(events->as_array().size(), 10u);

  // otherData mirrors the per-track totals (nothing dropped here).
  const json::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  const json::Value* tracks = other->find("tracks");
  ASSERT_NE(tracks, nullptr);
  ASSERT_EQ(tracks->as_array().size(), 2u);
  EXPECT_EQ(tracks->as_array()[0].find("events_total")->as_number(), 6.0);
  EXPECT_EQ(tracks->as_array()[0].find("events_dropped")->as_number(), 0.0);
  EXPECT_EQ(tracks->as_array()[1].find("events_total")->as_number(), 2.0);
  EXPECT_EQ(tracks->as_array()[1].find("name")->as_string(),
            "beta \"quoted\"");
}

TEST(ChromeExport, SkipsEndEventsOrphanedByDropOldest) {
  Tracer tracer;
  TraceBuffer* t = tracer.track("tiny", 4);
  t->begin_at("span", 0.0);
  t->instant_at("i1", 1.0);
  t->instant_at("i2", 2.0);
  t->instant_at("i3", 3.0);
  t->instant_at("i4", 4.0);  // overwrites the begin
  t->end_at("span", 5.0);    // its begin is gone -> must be skipped
  EXPECT_EQ(t->dropped(), 2u);

  const std::string path = temp_path("trace_orphan.json");
  ASSERT_TRUE(export_chrome_trace(tracer, path));
  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(read_file(path), root, &err)) << err;
  int ends = 0, instants = 0;
  for (const auto& ev : root.find("traceEvents")->as_array()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "E") ++ends;
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(ends, 0);
  EXPECT_EQ(instants, 3);  // i2..i4 retained; i1 overwritten
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, SnapshotIsDeterministicAndSorted) {
  auto fill = [](runtime::MetricsRegistry& reg) {
    reg.add("z/count", 3);
    reg.add("a/count", 1);
    reg.set("m/gauge", 0.25);
    reg.observe("h/lat_us", 3.0);
    reg.observe("h/lat_us", 700.0);
  };
  runtime::MetricsRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(r1.to_json(), r2.to_json());
  // And it is valid JSON with the flat three-section schema.
  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(r1.to_json(), root, &err)) << err;
  EXPECT_EQ(root.find("counters")->find("a/count")->as_number(), 1.0);
  EXPECT_EQ(root.find("counters")->find("z/count")->as_number(), 3.0);
  EXPECT_EQ(root.find("gauges")->find("m/gauge")->as_number(), 0.25);
  const json::Value* h = root.find("histograms")->find("h/lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->as_number(), 703.0);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  runtime::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.counter("x").increment();  // same kind is fine
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(MetricsRegistry, HistogramBucketsAreLog2) {
  using runtime::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_of(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.9), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 11u);
}

TEST(MetricsRegistry, FixedSeedReplayPublishesIdenticalSnapshots) {
  const auto e = env::small_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 32, false);
  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = 2048;
  wcfg.seed = 5;
  const auto w = core::build_prm_workload(*e, grid, wcfg);

  auto snapshot = [&] {
    core::PrmRunConfig cfg;
    cfg.procs = 8;
    cfg.strategy = core::Strategy::kHybridWS;
    cfg.seed = 5;
    const auto r = core::simulate_prm_run(w, cfg);
    runtime::MetricsRegistry reg;
    publish(reg, r.ws, "ws/");
    return reg.to_json();
  };
  EXPECT_EQ(snapshot(), snapshot());
}

// ---------------------------------------------------------------- publish

TEST(Publish, WorkCountsAndWorkerStats) {
  runtime::MetricsRegistry reg;
  runtime::WorkCounts w;
  w.cd_queries = 10;
  w.knn_candidates = 4;
  runtime::WorkCounts w2 = w;
  w2 += w;
  EXPECT_EQ(w2.cd_queries, 20u);
  EXPECT_EQ(w2.total(), 28u);
  publish(reg, w2, "work/");
  EXPECT_EQ(reg.counter("work/cd_queries").value(), 20u);
  EXPECT_EQ(reg.counter("work/knn_candidates").value(), 8u);

  // WorkCounts::to_json is itself valid JSON.
  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(w2.to_json(), root, &err)) << err;
  EXPECT_EQ(root.find("cd_queries")->as_number(), 20.0);

  std::vector<loadbal::WorkerStats> stats(2);
  stats[0].executed_local = 6;
  stats[0].steal_attempts = 4;
  stats[0].steal_failures = 1;
  stats[1].executed_stolen = 2;
  stats[1].park_s = 0.5;
  publish(reg, stats, "workers/");
  EXPECT_EQ(reg.counter("workers/executed_local").value(), 6u);
  EXPECT_EQ(reg.counter("workers/executed_stolen").value(), 2u);
  EXPECT_EQ(reg.counter("workers/steal_attempts").value(), 4u);
  EXPECT_EQ(reg.counter("workers/steal_failures").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("workers/park_total_s").value(), 0.5);
}

// ------------------------------------------------------- end-to-end: off

TEST(TraceEndToEnd, DisabledTracingHasZeroEventsAndIdenticalRoadmap) {
  const auto e = env::small_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 16, false);

  auto build = [&](runtime::Tracer* tracer) {
    core::ParallelPrmConfig cfg;
    cfg.total_attempts = 1500;
    cfg.seed = 11;
    cfg.workers = 3;
    cfg.tracer = tracer;
    return core::parallel_build_prm(*e, grid, cfg);
  };
  runtime::Tracer tracer;
  const auto traced = build(&tracer);
  const auto untraced = build(nullptr);
  EXPECT_GT(tracer.total_events(), 0u);

  // Bit-identical roadmap: same vertices (configs) and same edges.
  ASSERT_EQ(traced.roadmap.num_vertices(), untraced.roadmap.num_vertices());
  ASSERT_EQ(traced.roadmap.num_edges(), untraced.roadmap.num_edges());
  for (graph::VertexId v = 0; v < traced.roadmap.num_vertices(); ++v) {
    const auto& a = traced.roadmap.vertex(v).cfg;
    const auto& b = untraced.roadmap.vertex(v).cfg;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    const auto& ea = traced.roadmap.edges_of(v);
    const auto& eb = untraced.roadmap.edges_of(v);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].to, eb[i].to);
      EXPECT_EQ(ea[i].prop.length, eb[i].prop.length);
    }
  }
}

// ---------------------------------------------------- end-to-end: phases

TEST(TraceEndToEnd, PhasesTrackReproducesPhaseBreakdown) {
  const auto e = env::small_cube();
  const core::RegionGrid grid =
      core::RegionGrid::make_auto(e->space().position_bounds(), 32, false);
  core::PrmWorkloadConfig wcfg;
  wcfg.total_attempts = 2048;
  wcfg.seed = 3;
  const auto w = core::build_prm_workload(*e, grid, wcfg);

  runtime::Tracer tracer;
  core::PrmRunConfig cfg;
  cfg.procs = 8;
  cfg.strategy = core::Strategy::kHybridWS;
  cfg.seed = 3;
  cfg.tracer = &tracer;
  cfg.trace_prefix = "HybridWS/";
  cfg.trace_ranks = true;
  const auto r = core::simulate_prm_run(w, cfg);
  ASSERT_FALSE(r.ws.hit_event_limit);

  const TraceBuffer* phases = nullptr;
  std::size_t rank_tracks = 0;
  for (const TraceBuffer* t : tracer.tracks()) {
    if (t->track_name() == "HybridWS/phases") phases = t;
    if (t->track_name().rfind("HybridWS/rank ", 0) == 0) ++rank_tracks;
  }
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(rank_tracks, 8u);

  // Span durations on the phases track equal the reported breakdown.
  std::map<std::string, double> dur;
  std::map<std::string, double> open;
  for (const TraceEvent& ev : phases->snapshot()) {
    if (ev.type == TraceType::kBegin) open[ev.name] = ev.t;
    if (ev.type == TraceType::kEnd) dur[ev.name] += ev.t - open[ev.name];
  }
  // The track lays phases end-to-end on a cumulative timeline, so span
  // differences carry ~1 ulp of that accumulation — far inside the 1%
  // agreement the trace contract promises, but not bit-exact.
  const auto near = [&](double a, double b) {
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + r.phases.total()));
  };
  near(dur["setup"], r.phases.setup_s);
  near(dur["sampling"], r.phases.sampling_s);
  near(dur["redistribution"], r.phases.redistribution_s);
  near(dur["node_connection"], r.phases.node_connection_s);
  near(dur["region_connection"], r.phases.region_connection_s);

  // Rank tracks carry virtual-time events inside the simulated makespan.
  for (const TraceBuffer* t : tracer.tracks()) {
    if (t->track_name().rfind("HybridWS/rank ", 0) != 0) continue;
    for (const TraceEvent& ev : t->snapshot()) {
      EXPECT_GE(ev.t, 0.0);
      EXPECT_LE(ev.t, r.ws.makespan_s * (1.0 + 1e-9));
    }
  }
}

// ------------------------------------------------- concurrency (TSan job)

TEST(TraceConcurrency, SchedulerWorkersEmitConcurrently) {
  runtime::Tracer tracer;
  std::atomic<int> ran{0};
  {
    runtime::SchedulerOptions options;
    options.tracer = &tracer;
    runtime::Scheduler sched(4, options);
    runtime::TaskGroup group;
    for (int i = 0; i < 512; ++i)
      sched.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                   group);
    sched.wait(group);
  }  // workers joined: the trace buffers are quiescent before export
  EXPECT_EQ(ran.load(), 512);
  EXPECT_GT(tracer.total_events(), 0u);
  // Workers are quiescent after wait+destructor; export must be well-formed.
  const std::string path = temp_path("trace_sched.json");
  ASSERT_TRUE(export_chrome_trace(tracer, path));
  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(read_file(path), root, &err)) << err;
}

}  // namespace
