#include "service/query_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <thread>

#include "cspace/local_planner.hpp"

namespace pmpl::service {

namespace {

// Edge-batch tags of one query: (kind, roadmap vertex).
constexpr std::uint64_t kKindDirect = 0;
constexpr std::uint64_t kKindStart = 1;
constexpr std::uint64_t kKindGoal = 2;

constexpr std::uint64_t make_tag(std::uint64_t kind,
                                 graph::VertexId to) noexcept {
  return (kind << 32) | to;
}
constexpr std::uint64_t tag_kind(std::uint64_t tag) noexcept {
  return tag >> 32;
}
constexpr graph::VertexId tag_vertex(std::uint64_t tag) noexcept {
  return static_cast<graph::VertexId>(tag & 0xffffffffu);
}

}  // namespace

LatencyQuantiles summarize_latency(const runtime::Histogram& h) noexcept {
  LatencyQuantiles q;
  q.count = h.count();
  if (q.count == 0) return q;
  const auto at = [&](double frac) {
    // Nearest-rank: the smallest bucket whose cumulative count covers
    // ceil(frac * count) samples.
    const auto want = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(frac * static_cast<double>(q.count))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < runtime::Histogram::kBuckets; ++b) {
      seen += h.bucket(b);
      if (seen >= want) {
        // Bucket b covers [2^(b-1), 2^b); report the upper bound.
        return b == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(b));
      }
    }
    return std::ldexp(1.0, runtime::Histogram::kBuckets - 1);
  };
  q.p50_us = at(0.50);
  q.p99_us = at(0.99);
  q.p999_us = at(0.999);
  return q;
}

/// Per-query admission state, written by the caller before the fan-out.
struct QueryEngine::PreparedQuery {
  std::optional<runtime::CancelToken> token;  ///< emplaced at admission
  std::uint64_t id = 0;
  std::uint32_t corr = 0;
};

/// The engine's instruments, looked up once: the registry keeps every
/// instrument (and so these references) alive for its whole lifetime.
struct QueryEngine::Instruments {
  explicit Instruments(runtime::MetricsRegistry& reg)
      : queries_total(reg.counter("service/queries_total")),
        queries_solved(reg.counter("service/queries_solved")),
        queries_unreachable(reg.counter("service/queries_unreachable")),
        queries_invalid(reg.counter("service/queries_invalid")),
        deadline_missed(reg.counter("service/deadline_missed")),
        queries_no_snapshot(reg.counter("service/queries_no_snapshot")),
        latency_us(reg.histogram("service/latency_us")),
        stage_admit(reg.histogram("service/stage_us/admit")),
        stage_knn(reg.histogram("service/stage_us/knn")),
        stage_edges(reg.histogram("service/stage_us/edges")),
        stage_astar(reg.histogram("service/stage_us/astar")),
        epoch(reg.gauge("service/epoch")) {}

  runtime::Counter& queries_total;
  runtime::Counter& queries_solved;
  runtime::Counter& queries_unreachable;
  runtime::Counter& queries_invalid;
  runtime::Counter& deadline_missed;
  runtime::Counter& queries_no_snapshot;
  runtime::Histogram& latency_us;
  runtime::Histogram& stage_admit;
  runtime::Histogram& stage_knn;
  runtime::Histogram& stage_edges;
  runtime::Histogram& stage_astar;
  runtime::Gauge& epoch;
};

/// Everything one worker reuses from query to query.
struct QueryEngine::WorkerState {
  explicit WorkerState(const env::Environment& e, double resolution)
      : edges(e.space(), e.validity(), resolution) {}

  planner::KnnScratch knn;
  planner::KnnBatch neighbors;  ///< start's, then goal's
  cspace::EdgeBatchPlanner edges;
  std::vector<planner::AttachEdge> start_edges;
  std::vector<planner::AttachEdge> goal_edges;
  planner::SearchScratch search;
  // This wave's summed per-query stage time on this worker, seconds.
  double knn_s = 0.0;
  double edges_s = 0.0;
  double astar_s = 0.0;
};

QueryEngine::QueryEngine(const env::Environment& e, SnapshotPool& pool,
                         QueryEngineConfig cfg)
    : env_(&e), pool_(&pool), cfg_(cfg) {
  const std::size_t workers =
      cfg_.workers != 0 ? cfg_.workers : std::thread::hardware_concurrency();
  runtime::SchedulerOptions opts;
  opts.tracer = cfg_.tracer;
  sched_ = std::make_unique<runtime::Scheduler>(workers, opts);
  for (std::size_t i = 0; i <= sched_->size(); ++i)
    workers_.push_back(std::make_unique<WorkerState>(e, cfg_.resolution));
  // Registering every instrument up front gives scrapes a deterministic
  // key set from the first collection on, not one that grows with traffic.
  metrics_ = std::make_unique<Instruments>(registry());
}

QueryEngine::~QueryEngine() = default;

runtime::MetricsRegistry& QueryEngine::registry() const noexcept {
  return cfg_.metrics != nullptr ? *cfg_.metrics
                                 : runtime::MetricsRegistry::global();
}

void QueryEngine::record(QueryResult& r, double start_s) {
  r.latency_s = now_s() - start_s;
  Instruments& m = *metrics_;
  m.queries_total.add(1);
  switch (r.status) {
    case QueryStatus::kSolved:
      m.queries_solved.add(1);
      break;
    case QueryStatus::kUnreachable:
      m.queries_unreachable.add(1);
      break;
    case QueryStatus::kInvalidEndpoint:
      m.queries_invalid.add(1);
      break;
    case QueryStatus::kDeadlineMiss:
      break;  // counted below through the degraded flag
    case QueryStatus::kNoSnapshot:
      m.queries_no_snapshot.add(1);
      break;
  }
  if (r.degraded) m.deadline_missed.add(1);
  m.latency_us.observe(r.latency_s * 1e6);
}

void QueryEngine::answer(const QueryRequest& q, const PreparedQuery& p,
                         const RoadmapSnapshot& snap, WorkerState& w,
                         QueryResult& r, double start_s) {
  runtime::TraceBuffer* track =
      cfg_.tracer != nullptr ? cfg_.tracer->thread_track() : nullptr;
  if (track != nullptr)
    track->flow_end_at("query", cfg_.tracer->now_s(), p.corr);
  runtime::TraceSpan span(cfg_.tracer, track, "query", p.id);

  const auto miss = [&] {
    r.status = QueryStatus::kDeadlineMiss;
    r.degraded = true;
    record(r, start_s);
  };
  if (p.token->stop_requested()) return miss();
  // Each stage boundary closes the running stage into this worker's clock
  // and observes the deadline: a fired one ends the query right there.
  double mark = now_s();
  const auto end_stage = [&](double& clock) {
    const double now = now_s();
    clock += now - mark;
    mark = now;
    if (!p.token->stop_requested()) return false;
    miss();
    return true;
  };

  // k-NN: the query's own k nearest roadmap vertices of each endpoint.
  {
    runtime::TraceSpan stage(cfg_.tracer, track, "knn");
    const std::array<cspace::Config, 2> ends{q.start, q.goal};
    snap.knn.nearest_batch(ends, q.k, w.neighbors, w.knn);
  }
  if (end_stage(w.knn_s)) return;

  // Edges: the direct start->goal shot, then the start and then the goal
  // attachments, through one window committed in admission order. A
  // successful direct shot answers the query without the roadmap,
  // mirroring query_roadmap's trivial-query short-circuit, so nothing
  // after it is validated.
  bool direct = false;
  {
    runtime::TraceSpan stage(cfg_.tracer, track, "edges");
    const planner::Roadmap& g = snap.roadmap;
    cspace::EdgeBatchPlanner& ebp = w.edges;
    ebp.reset();
    w.start_edges.clear();
    w.goal_edges.clear();
    const auto commit_one = [&] {
      const auto out = ebp.next();
      if (!out.result.success) return;
      const planner::AttachEdge edge{tag_vertex(out.tag), out.result.length};
      switch (tag_kind(out.tag)) {
        case kKindDirect:
          direct = true;
          r.length = out.result.length;
          break;
        case kKindStart:
          w.start_edges.push_back(edge);
          break;
        default:  // kKindGoal
          w.goal_edges.push_back(edge);
          break;
      }
    };
    // False once the direct shot has answered the query.
    const auto admit = [&](const cspace::Config& a, const cspace::Config& b,
                           std::uint64_t tag) {
      if (!ebp.can_admit()) commit_one();
      if (direct) return false;
      ebp.admit(a, b, tag);
      return true;
    };
    bool open = admit(q.start, q.goal, make_tag(kKindDirect, 0));
    for (const planner::Neighbor& nb : w.neighbors.of(0)) {
      if (!open) break;
      open = admit(q.start, g.vertex(nb.id).cfg, make_tag(kKindStart, nb.id));
    }
    for (const planner::Neighbor& nb : w.neighbors.of(1)) {
      if (!open) break;
      open = admit(q.goal, g.vertex(nb.id).cfg, make_tag(kKindGoal, nb.id));
    }
    while (!direct && ebp.pending()) commit_one();
  }
  if (direct) {
    w.edges_s += now_s() - mark;
    r.status = QueryStatus::kSolved;
    r.path = {q.start, q.goal};
  } else {
    if (end_stage(w.edges_s)) return;
    // A*, guided by the snapshot's landmark table.
    runtime::TraceSpan stage(cfg_.tracer, track, "astar");
    auto path = planner::find_path_with_attachments(
        *env_, snap.roadmap, q.start, q.goal, w.start_edges, w.goal_edges,
        &snap.landmarks, &w.search);
    if (path.has_value()) {
      r.status = QueryStatus::kSolved;
      r.path = std::move(*path);
      r.length = planner::path_length(*env_, r.path);
    } else {
      r.status = QueryStatus::kUnreachable;
    }
    w.astar_s += now_s() - mark;
  }
  // Finished, but possibly past the deadline: keep the answer and mark it
  // late rather than discarding completed work.
  r.degraded = p.token->stop_requested();
  if (track != nullptr)
    track->instant_at("query_done", cfg_.tracer->now_s(),
                      static_cast<std::uint64_t>(r.status), p.corr);
  record(r, start_s);
}

std::vector<QueryResult> QueryEngine::run_batch(
    std::span<const QueryRequest> queries) {
  const std::size_t n = queries.size();
  std::vector<QueryResult> results(n);
  if (n == 0) return results;
  const double t0 = now_s();
  Instruments& m = *metrics_;

  std::vector<PreparedQuery> prep(n);
  {
    std::lock_guard lock(queue_mutex_);
    for (auto& p : prep) p.id = next_id_++;
  }

  SnapshotRef snap = pool_->acquire();
  if (!snap) {
    for (QueryResult& r : results) {
      r.status = QueryStatus::kNoSnapshot;
      record(r, t0);
    }
    return results;
  }
  const std::uint64_t epoch = snap->epoch;
  m.epoch.set(static_cast<double>(epoch));

  runtime::TraceBuffer* admit_track =
      cfg_.tracer != nullptr ? cfg_.tracer->thread_track("service admit")
                             : nullptr;

  // Admission, on the calling thread: deadline tokens, trace flows and
  // endpoint validity.
  std::vector<std::size_t> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const QueryRequest& q = queries[i];
    PreparedQuery& p = prep[i];
    p.token.emplace(q.deadline);
    p.corr = runtime::trace_corr(63, static_cast<std::uint32_t>(epoch),
                                 p.id);
    results[i].epoch = epoch;
    if (admit_track != nullptr) {
      const double now = cfg_.tracer->now_s();
      admit_track->instant_at("query_admit", now, p.id, p.corr);
      admit_track->flow_start_at("query", now, p.corr);
    }
    if (p.token->stop_requested()) {
      results[i].status = QueryStatus::kDeadlineMiss;
      results[i].degraded = true;
      record(results[i], t0);
      continue;
    }
    if (!env_->validity().valid(q.start) || !env_->validity().valid(q.goal)) {
      results[i].status = QueryStatus::kInvalidEndpoint;
      record(results[i], t0);
      continue;
    }
    live.push_back(i);
  }
  m.stage_admit.observe((now_s() - t0) * 1e6);

  // One wave item per admitted query: k-NN, edges and A* run end to end
  // on whichever thread claims it, a worker or this caller (state slot 0),
  // in that thread's reusable state. Each item writes only its own result
  // slot, so any interleaving gives the same results.
  for (auto& w : workers_) w->knn_s = w->edges_s = w->astar_s = 0.0;
  const runtime::CancelToken wave;  // engine-level; per-query tokens gate
  runtime::parallel_for_cancellable(
      *sched_, live.size(),
      [&](std::size_t j) {
        const std::size_t i = live[j];
        WorkerState& w = *workers_[static_cast<std::size_t>(
            sched_->current_worker() + 1)];
        answer(queries[i], prep[i], *snap, w, results[i], t0);
      },
      wave);
  double knn_s = 0.0, edges_s = 0.0, astar_s = 0.0;
  for (const auto& w : workers_) {
    knn_s += w->knn_s;
    edges_s += w->edges_s;
    astar_s += w->astar_s;
  }
  m.stage_knn.observe(knn_s * 1e6);
  m.stage_edges.observe(edges_s * 1e6);
  m.stage_astar.observe(astar_s * 1e6);
  return results;
}

std::uint64_t QueryEngine::submit(QueryRequest q) {
  std::lock_guard lock(queue_mutex_);
  const std::uint64_t id = next_id_++;
  queue_.emplace_back(id, std::move(q));
  return id;
}

std::vector<std::pair<std::uint64_t, QueryResult>> QueryEngine::drain() {
  std::vector<std::pair<std::uint64_t, QueryRequest>> pending;
  {
    std::lock_guard lock(queue_mutex_);
    pending.swap(queue_);
  }
  std::vector<QueryRequest> reqs;
  reqs.reserve(pending.size());
  for (auto& [id, req] : pending) reqs.push_back(req);
  auto results = run_batch(reqs);
  std::vector<std::pair<std::uint64_t, QueryResult>> out;
  out.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i)
    out.emplace_back(pending[i].first, std::move(results[i]));
  return out;
}

LatencyQuantiles QueryEngine::latency() const {
  return summarize_latency(metrics_->latency_us);
}

}  // namespace pmpl::service
