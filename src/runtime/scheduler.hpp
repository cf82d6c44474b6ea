#pragma once
/// \file scheduler.hpp
/// Lock-free work-stealing scheduler: the unified shared-memory execution
/// substrate for the repo.
///
/// Each worker owns a Chase–Lev deque (chase_lev_deque.hpp): recursive
/// submissions from a worker are a lock-free push/pop on its own deque, and
/// idle workers steal batches from random victims (oldest tasks first, so a
/// stolen batch preserves the victim's FIFO order). External threads submit
/// through small per-worker mutex inboxes that workers drain in bulk into
/// their deques — one brief lock per task on the producer side, amortized
/// on the consumer side, never on the worker↔worker hot path.
///
/// Idle workers back off (spin → yield → park on a condition variable), so
/// a draining scheduler does not burn 100% CPU; parked time is recorded
/// per worker. Quiescence is per-TaskGroup: every submission carries a
/// completion token, so independent waves of work on one scheduler wait
/// only for their own tasks (unlike the old ThreadPool::wait_idle()).
///
/// parallel_for is not a task per chunk: a call is one wave record with a
/// shared index cursor. It queues at most one runner task per worker in
/// one batch (one inbox lock per target, one wake), and the caller claims
/// chunks from the cursor beside the runners, then waits only for chunks
/// still in flight.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/cancel.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/trace.hpp"

namespace pmpl::runtime {

/// Per-worker execution counters, exported after a run (see
/// loadbal::summarize_workers for the load-balance view).
struct WorkerCounters {
  std::uint64_t executed_local = 0;   ///< taken from own deque/inbox
  std::uint64_t executed_stolen = 0;  ///< taken from another worker
  std::uint64_t steal_attempts = 0;   ///< victim probes (deque or inbox)
  std::uint64_t steal_failures = 0;   ///< probes that found nothing
  double park_s = 0.0;                ///< time spent parked, not spinning
};

/// Completion token: counts outstanding tasks of one logical wave. A plain
/// atomic — sleeping waiters park on the scheduler's condition variable, so
/// the group itself can be a short-lived stack object.
///
/// A task that throws does not take the process down: the first
/// exception of the wave is captured here and rethrown by Scheduler::wait
/// at the join point; later exceptions of the same wave are dropped,
/// matching the usual fork/join convention.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// True when a task of the group threw and wait() has not yet rethrown it.
  bool has_error() const noexcept {
    return has_error_.load(std::memory_order_acquire);
  }

 private:
  friend class Scheduler;

  void store_error(std::exception_ptr e) noexcept {
    std::lock_guard lock(error_mutex_);
    if (!error_) {
      error_ = std::move(e);
      has_error_.store(true, std::memory_order_release);
    }
  }

  std::exception_ptr take_error() noexcept {
    std::lock_guard lock(error_mutex_);
    has_error_.store(false, std::memory_order_release);
    return std::exchange(error_, nullptr);
  }

  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<bool> has_error_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

struct SchedulerOptions {
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< victim-selection streams
  /// Tracing sink; nullptr (the default) disables tracing entirely — no
  /// events, no extra work, no behavioral change. When set, each worker
  /// records task spans, steal instants (arg = victim) and park spans on
  /// its own wall-time thread track. Must outlive the scheduler.
  Tracer* tracer = nullptr;
};

/// Fixed set of worker threads over per-worker Chase–Lev deques.
///
/// Thread-safety: submit/submit_to/wait may be called from any thread,
/// including scheduler workers (recursive submission is the cheap path).
/// The destructor drains all remaining tasks, then joins the workers; as
/// with the old ThreadPool, submitting concurrently with destruction is
/// undefined.
class Scheduler {
 public:
  explicit Scheduler(std::size_t threads = std::thread::hardware_concurrency(),
                     SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task tracked by `group`. From a worker thread this is a
  /// lock-free push onto its own deque; from outside, tasks round-robin
  /// across worker inboxes.
  void submit(std::function<void()> fn, TaskGroup& group);

  /// Enqueue a task for a specific worker. This is an initial placement
  /// hint: an idle worker may still steal the task.
  void submit_to(std::uint32_t worker, std::function<void()> fn,
                 TaskGroup& group);

  /// Block until every task tracked by `group` has finished. Called from a
  /// worker of this scheduler, the worker helps execute queued tasks
  /// instead of blocking (recursive parallel_for does not deadlock).
  /// Rethrows the first exception thrown by a task of the group.
  void wait(TaskGroup& group);

  /// Index of the calling scheduler worker, or -1 for external threads.
  int current_worker() const noexcept;

  /// Snapshot of the per-worker counters.
  std::vector<WorkerCounters> counters() const;

 private:
  friend bool parallel_for_cancellable(
      Scheduler& sched, std::size_t n,
      const std::function<void(std::size_t)>& fn, const CancelToken& cancel,
      std::size_t chunk);

  struct Wave;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  ///< set on every submitted task
    /// Set on a wave's runner, which lives inside its Wave and is queued
    /// once per runner; `fn` and `group` are then unused.
    Wave* wave = nullptr;
  };

  struct Worker {
    ChaseLevDeque<Task*> deque;
    std::mutex inbox_mutex;
    std::deque<Task*> inbox;
    std::atomic<std::int64_t> inbox_size{0};
    std::vector<Task*> drained;  ///< owner-only inbox drain buffer, reused
    // Counters: written by the owning worker only; atomics so that
    // counters() snapshots are race-free while workers run.
    std::atomic<std::uint64_t> executed_local{0};
    std::atomic<std::uint64_t> executed_stolen{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> park_ns{0};
    TraceBuffer* trace = nullptr;  ///< this worker's track; null = tracing off
    std::thread thread;
  };

  void worker_loop(std::uint32_t w);
  /// Count `task` into its group and queue it for worker `target`: on its
  /// deque when the caller is that worker, else in its inbox.
  void enqueue(Task* task, std::uint32_t target);
  /// Queue `runner` `count` times: on the calling worker's deque, or one
  /// copy per worker inbox (count <= size()); one pending_ update and one
  /// wake for the batch.
  void enqueue_runners(Task* runner, std::size_t count);
  void run_task(Task* task, Worker* self_or_null);
  /// The body of parallel_for_cancellable.
  bool run_wave(std::size_t n, const std::function<void(std::size_t)>& fn,
                const CancelToken& cancel, std::size_t chunk);
  /// Block until `remaining` reads 0: a worker helps run tasks meanwhile,
  /// another thread parks.
  void await(const std::atomic<std::int64_t>& remaining);
  Task* find_task(std::uint32_t w, std::uint64_t& rng_state);
  Task* try_steal(std::uint32_t w, std::uint32_t victim);
  void wake_all();
  void wake_waiters();

  SchedulerOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint32_t> next_inbox_{0};  ///< round-robin for submit()

  /// Runnable-but-unclaimed tasks (deques + inboxes). seq_cst against
  /// `parked_`/`waiters_` to close the sleep/wake race (Dekker pattern).
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::int32_t> parked_{0};
  std::atomic<std::int32_t> waiters_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

/// Run fn(i) for i in [0, n), blocking until done: the caller and at most
/// one runner task per worker claim `chunk` indices at a time (0: about
/// n / (8 * size())) from one shared cursor. Waits only for this call's own
/// items, so concurrent parallel_for calls on one scheduler do not
/// serialize behind each other, and a call from a worker helps run other
/// tasks while it waits, so nested calls cannot deadlock. The first
/// exception an item throws is rethrown here once every claimed item has
/// finished; the other items still run.
void parallel_for(Scheduler& sched, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk = 0);

/// Cancel-aware parallel_for: every claimer polls `cancel` before each
/// item and stops claiming once it fires. Returns true iff every index
/// ran; false means the loop was cut short. Overrun past the stop signal
/// is at most one item per claimer.
bool parallel_for_cancellable(Scheduler& sched, std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancelToken& cancel,
                              std::size_t chunk = 0);

}  // namespace pmpl::runtime
