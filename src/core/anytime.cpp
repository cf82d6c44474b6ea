#include "core/anytime.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "geometry/intersect.hpp"
#include "graph/union_find.hpp"
#include "loadbal/partition.hpp"
#include "runtime/scheduler.hpp"
#include "util/state_file.hpp"
#include "util/timer.hpp"

namespace pmpl::core {

namespace {

/// Every PlannerStats counter, in payload order. Resumed builds report the
/// stats of an uninterrupted one only if none is left out.
template <typename Stats>  // planner::PlannerStats, const or not
auto counters(Stats& s) {
  return std::array{&s.cd.queries,        &s.cd.narrow_tests,
                    &s.cd.bvh_nodes,      &s.cd.ray_casts,
                    &s.samples_attempted, &s.samples_valid,
                    &s.knn_queries,       &s.knn_candidates,
                    &s.lp_attempts,       &s.lp_success,
                    &s.lp_steps,          &s.rrt_extends,
                    &s.rrt_extends_success};
}
static_assert(sizeof(planner::PlannerStats) ==
                  std::tuple_size_v<decltype(counters(
                      std::declval<planner::PlannerStats&>()))> *
                      sizeof(std::uint64_t),
              "a PlannerStats counter is missing from the checkpoint");

}  // namespace

std::uint64_t fp_environment(const env::Environment& e) {
  std::uint64_t h = fp_mix(kFnvOffset, std::string_view(e.name()));
  const auto& b = e.space().position_bounds();
  for (const double v : {b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z})
    h = fp_mix(h, v);
  return h;
}

bool save_checkpoint_file(const Checkpoint& c, const std::string& path) {
  StateBlob blob;
  blob.kind = c.kind;
  blob.fingerprint = c.fingerprint;
  blob.seed = c.seed;
  blob.meta0 = c.num_regions;
  blob.meta1 = static_cast<std::uint32_t>(c.regions.size());
  auto& out = blob.payload;
  for (const RegionSnapshot& s : c.regions) {
    put_u32(out, s.region);
    put_u32(out, static_cast<std::uint32_t>(s.configs.size()));
    for (const cspace::Config& cfg : s.configs) {
      put_u32(out, static_cast<std::uint32_t>(cfg.size()));
      for (const double v : cfg) put_f64(out, v);
    }
    put_u32(out, static_cast<std::uint32_t>(s.edges.size()));
    for (const RegionSnapshot::Edge& edge : s.edges) {
      put_u32(out, edge.u);
      put_u32(out, edge.v);
      put_f64(out, edge.length);
    }
    for (const std::uint64_t* v : counters(s.sampling)) put_u64(out, *v);
    for (const std::uint64_t* v : counters(s.stats)) put_u64(out, *v);
  }
  return save_state_file(blob, path);
}

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               IoStatus* status) {
  const auto fail = [&](IoStatus code) -> std::optional<Checkpoint> {
    if (status) *status = code;
    return std::nullopt;
  };
  IoStatus st = IoStatus::kOk;
  std::optional<StateBlob> blob = load_state_file(path, &st);
  if (status) *status = st;
  if (!blob) return std::nullopt;
  if (blob->kind != kCheckpointKindPrm && blob->kind != kCheckpointKindRrt)
    return fail(IoStatus::kMalformed);

  Checkpoint c;
  c.kind = blob->kind;
  c.fingerprint = blob->fingerprint;
  c.seed = blob->seed;
  c.num_regions = blob->meta0;
  StateReader r{blob->payload.data(), blob->payload.size()};
  while (r.left > 0) {
    RegionSnapshot s;
    s.region = r.u32();
    if (r.ok && s.region >= c.num_regions) return fail(IoStatus::kOutOfRange);
    // Every config takes at least its 4-byte dof, every edge 16 bytes: a
    // count the remaining bytes cannot hold is malformed, not allocated.
    const std::uint32_t configs = r.u32();
    if (!r.ok || configs > r.left / 4) return fail(IoStatus::kMalformed);
    s.configs.resize(configs);
    for (cspace::Config& cfg : s.configs) {
      const std::uint32_t dof = r.u32();
      if (dof > cspace::kMaxConfigValues) return fail(IoStatus::kOutOfRange);
      for (std::uint32_t i = 0; i < dof; ++i) cfg.push_back(r.f64());
    }
    const std::uint32_t edges = r.u32();
    if (!r.ok || edges > r.left / 16) return fail(IoStatus::kMalformed);
    s.edges.resize(edges);
    for (RegionSnapshot::Edge& edge : s.edges) {
      edge.u = r.u32();
      edge.v = r.u32();
      edge.length = r.f64();
      if (r.ok && (edge.u >= configs || edge.v >= configs))
        return fail(IoStatus::kOutOfRange);
    }
    for (std::uint64_t* v : counters(s.sampling)) *v = r.u64();
    for (std::uint64_t* v : counters(s.stats)) *v = r.u64();
    if (!r.ok) return fail(IoStatus::kMalformed);  // trailing partial record
    c.regions.push_back(std::move(s));
  }
  if (c.regions.size() != blob->meta1) return fail(IoStatus::kCountMismatch);

  std::vector<std::uint32_t> ids;
  ids.reserve(c.regions.size());
  for (const RegionSnapshot& s : c.regions) ids.push_back(s.region);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end())
    return fail(IoStatus::kMalformed);
  return c;
}

RegionBuildResult build_regions_anytime(std::size_t num_regions,
                                        const RegionPipeline& pipeline,
                                        const RegionTask& build_region,
                                        const ConnectPhase& connect) {
  RegionBuildResult result;
  const std::size_t nr = num_regions;
  const AnytimeOptions& any = pipeline.anytime;
  const runtime::CancelToken* cancel = any.cancel;
  runtime::Tracer* tracer = pipeline.tracer;
  auto& report = result.degradation;
  report.regions_total = nr;

  std::vector<RegionSnapshot> outputs(nr);
  std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[nr]);
  for (std::size_t r = 0; r < nr; ++r)
    done[r].store(false, std::memory_order_relaxed);

  // Restore completed regions from a previous run's checkpoint. Any
  // problem — absent, corrupt, or from a different build — degrades to a
  // fresh build, recorded in resume_status.
  if (any.resume && !any.checkpoint_path.empty()) {
    IoStatus st = IoStatus::kOk;
    auto ckpt = load_checkpoint_file(any.checkpoint_path, &st);
    if (ckpt) {
      if (ckpt->kind != pipeline.kind ||
          ckpt->fingerprint != pipeline.fingerprint ||
          ckpt->num_regions != nr) {
        st = IoStatus::kFingerprintMismatch;
      } else {
        for (auto& reg : ckpt->regions) {
          const std::uint32_t r = reg.region;  // validated by the loader
          outputs[r] = std::move(reg);
          done[r].store(true, std::memory_order_relaxed);
          ++report.regions_restored;
        }
      }
    }
    report.resume_status = st;
  }

  std::mutex checkpoint_mutex;
  std::atomic<bool> checkpoint_written{false};
  auto write_snapshot = [&] {
    std::lock_guard<std::mutex> lock(checkpoint_mutex);
    Checkpoint snap;
    snap.kind = pipeline.kind;
    snap.fingerprint = pipeline.fingerprint;
    snap.seed = pipeline.seed;
    snap.num_regions = static_cast<std::uint32_t>(nr);
    for (std::size_t r = 0; r < nr; ++r)
      if (done[r].load(std::memory_order_acquire))
        snap.regions.push_back(outputs[r]);
    if (save_checkpoint_file(snap, any.checkpoint_path))
      checkpoint_written.store(true, std::memory_order_release);
  };

  std::atomic<std::size_t> completed{report.regions_restored};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(nr);
  for (std::uint32_t r = 0; r < nr; ++r) {
    tasks.push_back([&, r] {
      if (done[r].load(std::memory_order_acquire)) return;  // restored
      if (runtime::stop_requested(cancel)) return;
      runtime::TraceBuffer* tb = tracer ? tracer->thread_track() : nullptr;
      runtime::TraceSpan span(tracer, tb, pipeline.task_span, r);
      planner::Roadmap local;
      RegionSnapshot out;
      build_region(r, local, out.sampling, out.stats);
      // All-or-nothing: a token fired mid-region means `local` is partial
      // and must not be kept, or resume equivalence would break.
      if (runtime::stop_requested(cancel)) return;
      out.region = r;
      out.configs.reserve(local.num_vertices());
      for (graph::VertexId u = 0; u < local.num_vertices(); ++u) {
        out.configs.push_back(local.vertex(u).cfg);
        for (const auto& he : local.edges_of(u))
          if (he.to > u) out.edges.push_back({u, he.to, he.prop.length});
      }
      outputs[r] = std::move(out);
      done[r].store(true, std::memory_order_release);
      const std::size_t c =
          completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (any.checkpoint_every != 0 && !any.checkpoint_path.empty() &&
          c % any.checkpoint_every == 0)
        write_snapshot();
    });
  }

  // Region tasks go straight onto the work-stealing scheduler with their
  // block placement. Tasks always execute and poll the token themselves (a
  // cancelled task is a cheap no-op), keeping the executor's accounting
  // intact.
  runtime::SchedulerOptions options;
  options.seed = pipeline.seed;
  options.tracer = tracer;
  runtime::Scheduler scheduler(pipeline.workers, options);
  WallTimer build_timer;
  result.workers = loadbal::run_on_scheduler(
      scheduler, tasks, loadbal::partition_block(nr, pipeline.workers));
  result.build_wall_s = build_timer.elapsed_s();
  report.cancelled = runtime::stop_requested(cancel);

  // Merge in region-id order (serial; bookkeeping only). Only completed
  // regions contribute — this is what makes the partial result a
  // prefix-equivalent of the full build.
  result.region_vertices.resize(nr);
  result.region_completed.resize(nr);
  result.region_sampling.resize(nr);
  result.region_build.resize(nr);
  for (std::uint32_t r = 0; r < nr; ++r) {
    if (!done[r].load(std::memory_order_acquire)) continue;
    ++report.regions_completed;
    result.region_completed[r] = true;
    auto& ids = result.region_vertices[r];
    ids.reserve(outputs[r].configs.size());
    for (auto& c : outputs[r].configs)
      ids.push_back(result.roadmap.add_vertex({std::move(c), r}));
    for (const auto& edge : outputs[r].edges)
      result.roadmap.add_edge(ids[edge.u], ids[edge.v], {edge.length});
    result.region_sampling[r] = outputs[r].sampling;
    result.region_build[r] = outputs[r].stats;
    result.stats += outputs[r].sampling;
    result.stats += outputs[r].stats;
  }

  // Connection edges are derived state: a resumed build redoes this phase
  // from the restored regions.
  WallTimer connect_timer;
  const bool connect_ran_to_end = connect(result);
  result.connect_wall_s = connect_timer.elapsed_s();
  report.connect_completed =
      connect_ran_to_end && !runtime::stop_requested(cancel);
  report.connected_components =
      graph::components_of(result.roadmap).num_components();

  if (!any.checkpoint_path.empty()) {
    if (!report.complete()) {
      // Final snapshot of whatever completed, so the build can resume.
      write_snapshot();
    } else {
      // Build finished: a stale checkpoint would only confuse later runs.
      std::remove(any.checkpoint_path.c_str());
      checkpoint_written.store(false, std::memory_order_release);
    }
  }
  report.checkpoint_written =
      checkpoint_written.load(std::memory_order_acquire);
  return result;
}

ConnectPhase connect_regions(
    const env::Environment& e,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacency,
    const RegionPipeline& pipeline, PairObserver on_pair) {
  return [&e, adjacency = std::move(adjacency), pipeline,
          on_pair = std::move(on_pair)](RegionBuildResult& merged) {
    const RegionConnect& rc = pipeline.connect;
    const runtime::CancelToken* cancel = pipeline.anytime.cancel;
    runtime::Tracer* tracer = pipeline.tracer;
    runtime::TraceBuffer* tb =
        tracer ? tracer->thread_track(pipeline.connect_track) : nullptr;
    graph::UnionFind cc;
    if (rc.params.skip_same_component)
      cc = graph::components_of(merged.roadmap);

    // Region `r`'s vertices that take part in connecting it to `other`:
    // the only data fetched remotely when the neighbour lives elsewhere.
    std::vector<graph::VertexId> band_a, band_b;
    const auto candidates = [&](std::uint32_t r, std::uint32_t other,
                                std::vector<graph::VertexId>& out)
        -> std::span<const graph::VertexId> {
      const auto& ids = merged.region_vertices[r];
      if (rc.boxes.empty()) return ids;
      out.clear();
      const double band2 = rc.band * rc.band;
      for (const graph::VertexId v : ids) {
        const geo::Vec3 p = e.space().position(merged.roadmap.vertex(v).cfg);
        if (geo::distance2(p, rc.boxes[other]) <= band2) out.push_back(v);
      }
      return out;
    };

    for (const auto& [a, b] : adjacency) {
      if (runtime::stop_requested(cancel)) return false;
      runtime::TraceSpan span(tracer, tb, "edge_connect", a);
      PairConnection pair;
      pair.a = a;
      pair.b = b;
      pair.near_b = candidates(b, a, band_b);
      pair.edges_added = planner::connect_between(
          e, merged.roadmap, candidates(a, b, band_a), pair.near_b, rc.params,
          pair.stats, rc.params.skip_same_component ? &cc : nullptr,
          rc.max_attempts, cancel);
      merged.stats += pair.stats;
      if (runtime::stop_requested(cancel)) return false;
      if (on_pair) on_pair(merged.roadmap, pair);
    }
    return true;
  };
}

}  // namespace pmpl::core
