#pragma once
/// \file query_engine.hpp
/// Batched concurrent multi-query planner engine.
///
/// The engine answers waves of start/goal queries against one pinned
/// roadmap snapshot (service/snapshot.hpp). The per-query costs that
/// one-shot querying pays over and over are amortized *across* queries:
///
///  - k-NN lookups read the snapshot's own kd-tree, which the publisher
///    built once for the epoch (query_roadmap builds one per call — the
///    dominant per-query cost on large roadmaps); every engine shares it
///    read-only through its own KnnScratch;
///  - all start/goal k-NN lookups of a wave run through one KnnBatch;
///  - all attachment edges (direct start->goal shots plus start/goal
///    k-NN connections) of a wave validate through one EdgeBatchPlanner
///    window, so the wide validity lanes stay full across queries;
///  - the per-query A* searches fan out onto scheduler workers via
///    parallel_for_cancellable, guided by the snapshot's landmark table
///    (built once per epoch by the publisher) and running in per-worker
///    search scratch that is never reset wholesale.
///
/// The roadmap is only read (overlay attach, planner/query.hpp), so any
/// number of in-flight queries share one snapshot without synchronization.
///
/// Deadlines: every query may carry a runtime::Deadline. An expired
/// deadline is observed at each pipeline stage boundary (admission, k-NN,
/// edge validation, A*) — one granule of bounded overrun, never a stuck
/// worker — and the query returns QueryStatus::kDeadlineMiss with
/// `degraded` set. A query that completes but past its deadline keeps its
/// path and is marked degraded (late delivery).
///
/// Determinism: batching and attachment run on the calling thread in
/// admission order; the A* fan-out writes each query's result into its own
/// slot. With deadlines off, the same snapshot + the same request sequence
/// produce bit-identical paths for any worker count or interleaving.

#include <cstdint>
#include <span>
#include <vector>

#include "env/environment.hpp"
#include "planner/knn.hpp"
#include "planner/query.hpp"
#include "runtime/cancel.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "service/snapshot.hpp"

namespace pmpl::service {

/// One planning problem admitted to the engine.
struct QueryRequest {
  cspace::Config start;
  cspace::Config goal;
  runtime::Deadline deadline{};  ///< default: never expires
  std::size_t k = 8;             ///< attachment neighbors per endpoint
};

enum class QueryStatus : std::uint8_t {
  kSolved = 0,
  kUnreachable = 1,      ///< endpoints valid but not connected in this epoch
  kInvalidEndpoint = 2,  ///< start or goal in collision
  kDeadlineMiss = 3,     ///< deadline expired before an answer was produced
  kNoSnapshot = 4,       ///< nothing published yet
};

struct QueryResult {
  QueryStatus status = QueryStatus::kNoSnapshot;
  bool degraded = false;  ///< deadline expired before completion
  std::uint64_t epoch = 0;  ///< snapshot epoch the answer is valid against
  double latency_s = 0.0;
  double length = 0.0;  ///< metric path length when solved
  std::vector<cspace::Config> path;
};

struct QueryEngineConfig {
  std::size_t workers = 0;   ///< 0: hardware concurrency
  double resolution = 1.0;   ///< local-plan validation step
  /// Metrics sink; nullptr = MetricsRegistry::global(). Published live:
  ///   counters   service/queries_total, service/queries_solved,
  ///              service/queries_unreachable, service/queries_invalid,
  ///              service/deadline_missed
  ///   histograms service/latency_us (per query),
  ///              service/stage_us/{admit,knn,edges,astar} (per wave:
  ///              wall time of each pipeline stage; log2 buckets)
  ///   gauges     service/epoch (snapshot answered against)
  runtime::MetricsRegistry* metrics = nullptr;
  /// Tracing sink; nullptr disables. Each query emits an admission instant
  /// + flow arrow (category "query", correlation id from the query id) on
  /// the admitting thread and a matching flow end + "query" span on the
  /// worker that runs its A*.
  runtime::Tracer* tracer = nullptr;
};

/// Coarse latency quantiles out of a log2-bucketed histogram: each
/// quantile reports its bucket's upper bound, so values are exact to one
/// power of two — the right fidelity for SLO dashboards fed by the
/// lock-free histogram.
struct LatencyQuantiles {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};
LatencyQuantiles summarize_latency(const runtime::Histogram& h) noexcept;

/// Long-lived multi-query engine over a snapshot pool. One engine instance
/// processes one wave at a time (`run_batch` is internally parallel but
/// externally serialized — call it from one thread); `submit`/`drain` add
/// a thread-safe admission queue on top for service frontends.
class QueryEngine {
 public:
  QueryEngine(const env::Environment& e, SnapshotPool& pool,
              QueryEngineConfig cfg = {});
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answer a wave of queries against the current snapshot. Results are
  /// positionally aligned with `queries`.
  std::vector<QueryResult> run_batch(std::span<const QueryRequest> queries);

  /// Enqueue one query for the next drain; returns its query id.
  /// Thread-safe against concurrent submit and drain.
  std::uint64_t submit(QueryRequest q);

  /// Process everything queued at the time of the call as one batch;
  /// returns (id, result) pairs in admission order.
  std::vector<std::pair<std::uint64_t, QueryResult>> drain();

  /// Quantiles of the engine's own latency histogram.
  LatencyQuantiles latency() const;

  /// Publish the pool's snapshot gauges alongside the engine's counters.
  void publish_pool_metrics() { pool_->publish_metrics(registry()); }

  const QueryEngineConfig& config() const noexcept { return cfg_; }
  runtime::Scheduler& scheduler() noexcept { return *sched_; }

 private:
  struct PreparedQuery;

  runtime::MetricsRegistry& registry() const noexcept;
  void record(const QueryRequest& q, QueryResult& r, double start_s);

  const env::Environment* env_;
  SnapshotPool* pool_;
  QueryEngineConfig cfg_;
  std::unique_ptr<runtime::Scheduler> sched_;

  // k-NN state for queries against the pinned snapshot's index.
  planner::KnnScratch knn_scratch_;
  planner::KnnBatch knn_batch_;
  // A* state, one per scheduler worker (index current_worker() + 1; slot 0
  // serves a search that runs off the pool).
  std::vector<planner::SearchScratch> search_scratch_;

  std::mutex queue_mutex_;
  std::vector<std::pair<std::uint64_t, QueryRequest>> queue_;
  std::uint64_t next_id_ = 1;

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  double now_s() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
};

}  // namespace pmpl::service
