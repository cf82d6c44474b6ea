#pragma once
/// \file query_engine.hpp
/// Batched concurrent multi-query planner engine.
///
/// The engine answers waves of start/goal queries against one pinned
/// roadmap snapshot (service/snapshot.hpp). The caller admits the wave:
/// query ids, deadline tokens, trace flows and endpoint validity. The
/// admitted queries then form one parallel_for_cancellable wave: the
/// scheduler's workers and the calling thread itself claim queries one at
/// a time from the wave's shared cursor, so the caller answers queries
/// instead of parking. Whoever claims a query runs it end to end:
///
///  - k-NN: the query's own k nearest vertices of each endpoint, from the
///    snapshot's kd-tree, which the publisher built once for the epoch
///    (query_roadmap builds one per call, the dominant per-query cost on
///    large roadmaps); every thread reads it through its own KnnScratch;
///  - edges: the direct start->goal shot, then the start and then the goal
///    attachments, through the thread's EdgeBatchPlanner window, which
///    keeps the wide validity lanes full within the query; a successful
///    direct shot answers the query there;
///  - A*: guided by the snapshot's landmark table (built once per epoch by
///    the publisher), in the thread's search scratch, which is never reset
///    wholesale.
///
/// Every piece of per-query state is the claiming thread's, reused from
/// query to query, so a wave allocates little beyond its results.
///
/// The roadmap is only read (overlay attach, planner/query.hpp), so any
/// number of in-flight queries share one snapshot without synchronization.
///
/// Deadlines: every query may carry a runtime::Deadline. An expired
/// deadline is observed at each pipeline stage boundary (admission, k-NN,
/// edge validation, A*): one granule of bounded overrun, never a stuck
/// worker. The query then returns QueryStatus::kDeadlineMiss with
/// `degraded` set. A query that completes but past its deadline keeps its
/// answer and is marked degraded (late delivery).
///
/// Determinism: a query's answer depends only on the snapshot and on the
/// request itself (its own k, its own edge window), never on the rest of
/// the wave or on which thread ran it, and each query writes only its own
/// result slot. With deadlines off, the same snapshot and the same
/// requests give bit-identical answers for any worker count, interleaving
/// or wave composition.

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
  /// Metrics sink; nullptr = MetricsRegistry::global(). The engine looks
  /// its instruments up once, at construction. Published live:
  ///   counters   service/queries_total, service/queries_solved,
  ///              service/queries_unreachable, service/queries_invalid,
  ///              service/deadline_missed, service/queries_no_snapshot
  ///   histograms service/latency_us (per query),
  ///              service/stage_us/{admit,knn,edges,astar} (one sample per
  ///              wave; log2 buckets): admit is the caller's wall time,
  ///              knn/edges/astar the wave's per-query time summed over
  ///              the threads that ran it
  ///   gauges     service/epoch (snapshot answered against)
  runtime::MetricsRegistry* metrics = nullptr;
  /// Tracing sink; nullptr disables. Each query emits an admission instant
  /// + flow arrow (category "query", correlation id from the query id) on
  /// the admitting thread, and a matching flow end + "query" span on the
  /// thread that runs it (a worker, or the admitting thread itself), with
  /// "knn", "edges" and "astar" spans nested in it.
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
  struct Instruments;
  struct WorkerState;

  runtime::MetricsRegistry& registry() const noexcept;
  void record(QueryResult& r, double start_s);
  /// One admitted query end to end (k-NN, edges, A*) on the claiming thread.
  void answer(const QueryRequest& q, const PreparedQuery& p,
              const RoadmapSnapshot& snap, WorkerState& w, QueryResult& r,
              double start_s);

  const env::Environment* env_;
  SnapshotPool* pool_;
  QueryEngineConfig cfg_;
  std::unique_ptr<Instruments> metrics_;
  // Per-query scratch, one per scheduler worker (index current_worker() + 1)
  // plus slot 0 for run_batch's calling thread, which claims queries of its
  // own wave; run_batch is externally serialized, so slot 0 has one user.
  std::vector<std::unique_ptr<WorkerState>> workers_;
  // Declared after what its tasks use, so its threads stop first.
  std::unique_ptr<runtime::Scheduler> sched_;

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
