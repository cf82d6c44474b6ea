#include "service/query_engine.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "cspace/local_planner.hpp"

namespace pmpl::service {

namespace {

// Edge-batch tags: (query index, kind, roadmap vertex).
constexpr std::uint64_t kKindDirect = 0;
constexpr std::uint64_t kKindStart = 1;
constexpr std::uint64_t kKindGoal = 2;

constexpr std::uint64_t make_tag(std::size_t qi, std::uint64_t kind,
                                 graph::VertexId to) noexcept {
  return (static_cast<std::uint64_t>(qi) << 40) | (kind << 32) | to;
}
constexpr std::size_t tag_query(std::uint64_t tag) noexcept {
  return static_cast<std::size_t>(tag >> 40);
}
constexpr std::uint64_t tag_kind(std::uint64_t tag) noexcept {
  return (tag >> 32) & 0xffu;
}
constexpr graph::VertexId tag_vertex(std::uint64_t tag) noexcept {
  return static_cast<graph::VertexId>(tag & 0xffffffffu);
}

// Per-wave stage histograms, in pipeline order.
constexpr const char* kStageAdmit = "service/stage_us/admit";
constexpr const char* kStageKnn = "service/stage_us/knn";
constexpr const char* kStageEdges = "service/stage_us/edges";
constexpr const char* kStageAstar = "service/stage_us/astar";

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

/// Per-query state threaded through the wave pipeline.
struct QueryEngine::PreparedQuery {
  std::unique_ptr<runtime::CancelToken> token;
  std::vector<planner::AttachEdge> start_edges;
  std::vector<planner::AttachEdge> goal_edges;
  std::uint64_t id = 0;
  std::uint32_t corr = 0;
  bool alive = false;  ///< still needs its A* stage
};

QueryEngine::QueryEngine(const env::Environment& e, SnapshotPool& pool,
                         QueryEngineConfig cfg)
    : env_(&e), pool_(&pool), cfg_(cfg) {
  const std::size_t workers =
      cfg_.workers != 0 ? cfg_.workers : std::thread::hardware_concurrency();
  runtime::SchedulerOptions opts;
  opts.tracer = cfg_.tracer;
  sched_ = std::make_unique<runtime::Scheduler>(workers, opts);
  search_scratch_.resize(sched_->size() + 1);

  // Pre-register every instrument so scrapes see a deterministic key set
  // from the first collection on, not one that grows with traffic.
  auto& reg = registry();
  for (const char* name :
       {"service/queries_total", "service/queries_solved",
        "service/queries_unreachable", "service/queries_invalid",
        "service/deadline_missed", "service/queries_no_snapshot"})
    reg.counter(name);
  reg.histogram("service/latency_us");
  for (const char* name : {kStageAdmit, kStageKnn, kStageEdges, kStageAstar})
    reg.histogram(name);
  reg.gauge("service/epoch");
}

QueryEngine::~QueryEngine() = default;

runtime::MetricsRegistry& QueryEngine::registry() const noexcept {
  return cfg_.metrics != nullptr ? *cfg_.metrics
                                 : runtime::MetricsRegistry::global();
}

void QueryEngine::record(const QueryRequest& q, QueryResult& r,
                         double start_s) {
  (void)q;
  r.latency_s = now_s() - start_s;
  auto& reg = registry();
  reg.add("service/queries_total", 1);
  switch (r.status) {
    case QueryStatus::kSolved:
      reg.add("service/queries_solved", 1);
      break;
    case QueryStatus::kUnreachable:
      reg.add("service/queries_unreachable", 1);
      break;
    case QueryStatus::kInvalidEndpoint:
      reg.add("service/queries_invalid", 1);
      break;
    case QueryStatus::kDeadlineMiss:
      break;  // counted below through the degraded flag
    case QueryStatus::kNoSnapshot:
      reg.add("service/queries_no_snapshot", 1);
      break;
  }
  if (r.degraded) reg.add("service/deadline_missed", 1);
  reg.observe("service/latency_us", r.latency_s * 1e6);
}

std::vector<QueryResult> QueryEngine::run_batch(
    std::span<const QueryRequest> queries) {
  const std::size_t n = queries.size();
  std::vector<QueryResult> results(n);
  if (n == 0) return results;
  const double t0 = now_s();

  std::vector<PreparedQuery> prep(n);
  {
    std::lock_guard lock(queue_mutex_);
    for (auto& p : prep) p.id = next_id_++;
  }

  SnapshotRef snap = pool_->acquire();
  if (!snap) {
    for (std::size_t i = 0; i < n; ++i) {
      results[i].status = QueryStatus::kNoSnapshot;
      record(queries[i], results[i], t0);
    }
    return results;
  }
  const std::uint64_t epoch = snap->epoch;
  registry().set("service/epoch", static_cast<double>(epoch));

  // Each call closes the running stage into its per-wave histogram.
  double stage_t0 = t0;
  const auto end_stage = [&](const char* histogram) {
    const double now = now_s();
    registry().observe(histogram, (now - stage_t0) * 1e6);
    stage_t0 = now;
  };

  runtime::TraceBuffer* admit_track =
      cfg_.tracer != nullptr ? cfg_.tracer->thread_track("service admit")
                             : nullptr;

  // Stage 0 — admission: deadline tokens, endpoint validity, trace flows.
  planner::PlannerStats st;
  std::size_t kmax = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const QueryRequest& q = queries[i];
    PreparedQuery& p = prep[i];
    p.token = std::make_unique<runtime::CancelToken>(q.deadline);
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
      record(q, results[i], t0);
      continue;
    }
    if (!env_->validity().valid(q.start, &st.cd) ||
        !env_->validity().valid(q.goal, &st.cd)) {
      results[i].status = QueryStatus::kInvalidEndpoint;
      record(q, results[i], t0);
      continue;
    }
    p.alive = true;
    kmax = std::max(kmax, q.k);
  }

  end_stage(kStageAdmit);

  // Stage 1 — one batched k-NN pass over the snapshot's index for every
  // live endpoint. All queries share kmax; a query wanting fewer neighbors
  // takes the prefix of its result span (the canonical neighbor order makes
  // the k-best set a prefix of the kmax-best set, so this is exactly its
  // own k-NN answer).
  std::vector<std::size_t> live;
  live.reserve(n);
  std::vector<cspace::Config> qcfgs;
  qcfgs.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!prep[i].alive) continue;
    live.push_back(i);
    qcfgs.push_back(queries[i].start);
    qcfgs.push_back(queries[i].goal);
  }
  if (!live.empty())
    snap->knn.nearest_batch(qcfgs, kmax, knn_batch_, knn_scratch_, &st);
  end_stage(kStageKnn);

  // Stage 2 — cross-query edge validation: every attachment candidate of
  // every live query flows through one speculative window, so the wide
  // validity lanes stay full across queries, not just within one.
  const planner::Roadmap& g = snap->roadmap;
  cspace::EdgeBatchPlanner ebp(env_->space(), env_->validity(),
                               cfg_.resolution);
  const auto commit_one = [&] {
    const auto out = ebp.next(&st.cd);
    if (!out.result.success) return;
    const std::size_t qi = tag_query(out.tag);
    PreparedQuery& p = prep[qi];
    switch (tag_kind(out.tag)) {
      case kKindDirect:
        // Direct start->goal shot succeeded: answered without the roadmap,
        // mirroring query_roadmap's trivial-query short-circuit.
        if (results[qi].path.empty()) {
          results[qi].status = QueryStatus::kSolved;
          results[qi].length = out.result.length;
          results[qi].path = {queries[qi].start, queries[qi].goal};
          p.alive = false;
        }
        break;
      case kKindStart:
        p.start_edges.push_back({tag_vertex(out.tag), out.result.length});
        break;
      case kKindGoal:
        p.goal_edges.push_back({tag_vertex(out.tag), out.result.length});
        break;
      default:
        break;
    }
  };
  const auto admit = [&](const cspace::Config& a, const cspace::Config& b,
                         std::uint64_t tag) {
    if (!ebp.can_admit()) commit_one();
    ebp.admit(a, b, tag);
  };
  for (std::size_t li = 0; li < live.size(); ++li) {
    const std::size_t i = live[li];
    const QueryRequest& q = queries[i];
    PreparedQuery& p = prep[i];
    if (p.token->stop_requested()) {
      // Deadline fired during the batch phase: this query admits nothing
      // more (edges already in flight drain harmlessly — their outcomes
      // land in a result that is already final).
      results[i].status = QueryStatus::kDeadlineMiss;
      results[i].degraded = true;
      p.alive = false;
      record(q, results[i], t0);
      continue;
    }
    admit(q.start, q.goal, make_tag(i, kKindDirect, 0));
    const auto start_nn = knn_batch_.of(2 * li);
    const auto goal_nn = knn_batch_.of(2 * li + 1);
    const std::size_t ks = std::min(q.k, start_nn.size());
    for (std::size_t j = 0; j < ks; ++j)
      admit(q.start, g.vertex(start_nn[j].id).cfg,
            make_tag(i, kKindStart, start_nn[j].id));
    const std::size_t kg = std::min(q.k, goal_nn.size());
    for (std::size_t j = 0; j < kg; ++j)
      admit(q.goal, g.vertex(goal_nn[j].id).cfg,
            make_tag(i, kKindGoal, goal_nn[j].id));
  }
  while (ebp.pending()) commit_one();

  // Direct-solved queries are final now.
  for (const std::size_t i : live) {
    if (!prep[i].alive && results[i].status == QueryStatus::kSolved)
      record(queries[i], results[i], t0);
  }
  end_stage(kStageEdges);

  // Stage 3 — per-query A* fan-out onto scheduler workers. Each query
  // writes only its own slot, so any interleaving yields the same results.
  std::vector<std::size_t> astar_ix;
  astar_ix.reserve(live.size());
  for (const std::size_t i : live)
    if (prep[i].alive) astar_ix.push_back(i);

  const runtime::CancelToken wave;  // engine-level; per-query tokens gate
  runtime::parallel_for_cancellable(
      *sched_, astar_ix.size(),
      [&](std::size_t j) {
        const std::size_t i = astar_ix[j];
        const QueryRequest& q = queries[i];
        PreparedQuery& p = prep[i];
        QueryResult& r = results[i];
        runtime::TraceBuffer* track =
            cfg_.tracer != nullptr ? cfg_.tracer->thread_track() : nullptr;
        if (track != nullptr)
          track->flow_end_at("query", cfg_.tracer->now_s(), p.corr);
        runtime::TraceSpan span(cfg_.tracer, track, "query", p.id);
        if (p.token->stop_requested()) {
          r.status = QueryStatus::kDeadlineMiss;
          r.degraded = true;
          record(q, r, t0);
          return;
        }
        auto path = planner::find_path_with_attachments(
            *env_, g, q.start, q.goal, p.start_edges, p.goal_edges,
            &snap->landmarks,
            &search_scratch_[static_cast<std::size_t>(
                sched_->current_worker() + 1)]);
        if (path.has_value()) {
          r.status = QueryStatus::kSolved;
          r.path = std::move(*path);
          r.length = planner::path_length(*env_, r.path);
        } else {
          r.status = QueryStatus::kUnreachable;
        }
        // Finished, but possibly past the deadline: keep the answer and
        // mark it late rather than discarding completed work.
        r.degraded = p.token->stop_requested();
        if (track != nullptr)
          track->instant_at("query_done", cfg_.tracer->now_s(),
                            static_cast<std::uint64_t>(r.status), p.corr);
        record(q, r, t0);
      },
      wave);
  end_stage(kStageAstar);

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
  return summarize_latency(registry().histogram("service/latency_us"));
}

}  // namespace pmpl::service
