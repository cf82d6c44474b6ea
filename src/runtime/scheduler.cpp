#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

namespace pmpl::runtime {

namespace {

/// Who am I? Set once per worker thread; external threads keep {nullptr}.
thread_local const Scheduler* tls_scheduler = nullptr;
thread_local int tls_worker = -1;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// xorshift64*: tiny per-worker victim-selection stream (no allocation,
/// no shared state).
inline std::uint64_t next_rand(std::uint64_t& s) noexcept {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1Dull;
}

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return z ? z : 1;  // xorshift state must be nonzero
}

constexpr int kSpinIters = 64;    ///< pause-loop iterations before yielding
constexpr int kYieldIters = 16;   ///< yields before parking
constexpr std::size_t kStealBatchMax = 16;  ///< cap on extra tasks per steal

}  // namespace

Scheduler::Scheduler(std::size_t threads, SchedulerOptions options)
    : options_(options) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t w = 0; w < n; ++w)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t w = 0; w < n; ++w)
    workers_[w]->thread =
        std::thread([this, w] { worker_loop(static_cast<std::uint32_t>(w)); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(park_mutex_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

int Scheduler::current_worker() const noexcept {
  return tls_scheduler == this ? tls_worker : -1;
}

void Scheduler::wake_all() {
  if (parked_.load(std::memory_order_seq_cst) > 0 ||
      waiters_.load(std::memory_order_seq_cst) > 0) {
    // Taking the mutex (even empty) closes the race with a worker that has
    // registered in parked_ but not yet entered the condition wait.
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void Scheduler::enqueue_to(std::uint32_t w, Task* task) {
  Worker& target = *workers_[w];
  {
    std::lock_guard lock(target.inbox_mutex);
    target.inbox.push_back(task);
    target.inbox_size.store(static_cast<std::int64_t>(target.inbox.size()),
                            std::memory_order_seq_cst);
  }
  pending_.fetch_add(1, std::memory_order_seq_cst);
  wake_all();
}

void Scheduler::submit(std::function<void()> fn, TaskGroup* group) {
  if (group) group->outstanding_.fetch_add(1, std::memory_order_seq_cst);
  Task* task = new Task{std::move(fn), group};
  const int self = current_worker();
  if (self >= 0) {
    workers_[static_cast<std::size_t>(self)]->deque.push(task);
    pending_.fetch_add(1, std::memory_order_seq_cst);
    wake_all();
  } else {
    const std::uint32_t target =
        next_inbox_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<std::uint32_t>(size());
    enqueue_to(target, task);
  }
}

void Scheduler::submit_to(std::uint32_t worker, std::function<void()> fn,
                          TaskGroup* group) {
  assert(worker < size());
  if (group) group->outstanding_.fetch_add(1, std::memory_order_seq_cst);
  Task* task = new Task{std::move(fn), group};
  if (current_worker() == static_cast<int>(worker)) {
    workers_[worker]->deque.push(task);
    pending_.fetch_add(1, std::memory_order_seq_cst);
    wake_all();
  } else {
    enqueue_to(worker, task);
  }
}

void Scheduler::run_task(Task* task, Worker* self) {
  TaskGroup* group = task->group;
  TraceBuffer* const trace = self ? self->trace : nullptr;
  // A cancelled group's queued tasks are dropped, not executed: cancelled
  // waves drain at pointer speed, which bounds the overrun of a deadline.
  if (group && group->cancel_ && group->cancel_->stop_requested()) {
    if (trace) trace->instant_at("task_cancelled", options_.tracer->now_s());
    group->skipped_.fetch_add(1, std::memory_order_acq_rel);
    delete task;
    if (group->outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1)
      wake_all();
    return;
  }
  if (trace) trace->begin_at("task", options_.tracer->now_s());
  try {
    task->fn();
  } catch (...) {
    // Never let a task exception unwind the worker loop (std::terminate).
    // Grouped: latched on the group, rethrown at its join. Ungrouped:
    // latched on the scheduler for take_orphan_error().
    if (group) {
      group->store_error(std::current_exception());
    } else {
      std::lock_guard lock(orphan_mutex_);
      if (!orphan_error_) orphan_error_ = std::current_exception();
    }
  }
  if (trace) trace->end_at("task", options_.tracer->now_s());
  delete task;
  if (group &&
      group->outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Last task of the wave: the group may be a stack object about to be
    // destroyed by its waiter, so only scheduler members are touched here.
    wake_all();
  }
}

Scheduler::Task* Scheduler::try_steal(std::uint32_t w, std::uint32_t victim) {
  Worker& v = *workers_[victim];
  Worker& self = *workers_[w];
  Task* first = nullptr;
  if (v.deque.steal(first)) {
    // Batched half-steal: grab up to half the victim's remaining queue.
    // steal() hands out the victim's oldest tasks in order; re-pushing the
    // extras in reverse makes our own LIFO pops run them in that same
    // (victim-FIFO) order.
    const std::size_t want = std::min<std::size_t>(
        v.deque.size_approx() / 2, kStealBatchMax);
    std::vector<Task*> extras;
    extras.reserve(want);
    Task* t = nullptr;
    while (extras.size() < want && v.deque.steal(t)) extras.push_back(t);
    for (auto it = extras.rbegin(); it != extras.rend(); ++it)
      self.deque.push(*it);
    return first;
  }
  if (v.inbox_size.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(v.inbox_mutex);
    if (!v.inbox.empty()) {
      Task* t = v.inbox.front();
      v.inbox.pop_front();
      v.inbox_size.store(static_cast<std::int64_t>(v.inbox.size()),
                         std::memory_order_seq_cst);
      return t;
    }
  }
  return nullptr;
}

Scheduler::Task* Scheduler::find_task(std::uint32_t w,
                                      std::uint64_t& rng_state) {
  Worker& self = *workers_[w];
  Task* task = nullptr;

  // 1. Own deque: the lock-free hot path.
  if (self.deque.pop(task)) {
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    self.executed_local.fetch_add(1, std::memory_order_relaxed);
    return task;
  }

  // 2. Own inbox: bulk-drain into the deque (reversed, so LIFO pops run
  // the tasks in arrival order), then pop.
  if (self.inbox_size.load(std::memory_order_seq_cst) > 0) {
    std::vector<Task*> drained;
    {
      std::lock_guard lock(self.inbox_mutex);
      drained.assign(self.inbox.begin(), self.inbox.end());
      self.inbox.clear();
      self.inbox_size.store(0, std::memory_order_seq_cst);
    }
    for (auto it = drained.rbegin(); it != drained.rend(); ++it)
      self.deque.push(*it);
    if (self.deque.pop(task)) {
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      self.executed_local.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }

  // 3. Steal: a few random probes, then one deterministic sweep so that a
  // lone runnable task is always discovered, not just with probability.
  const auto n = static_cast<std::uint32_t>(size());
  if (n == 1) return nullptr;
  const std::uint32_t random_probes = 2 * n;
  for (std::uint32_t i = 0; i < random_probes; ++i) {
    const auto victim =
        static_cast<std::uint32_t>(next_rand(rng_state) % n);
    if (victim == w) continue;
    self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    if ((task = try_steal(w, victim))) {
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      self.executed_stolen.fetch_add(1, std::memory_order_relaxed);
      if (self.trace)
        self.trace->instant_at("steal", options_.tracer->now_s(), victim);
      return task;
    }
    self.steal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::uint32_t victim = 0; victim < n; ++victim) {
    if (victim == w) continue;
    self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    if ((task = try_steal(w, victim))) {
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      self.executed_stolen.fetch_add(1, std::memory_order_relaxed);
      if (self.trace)
        self.trace->instant_at("steal", options_.tracer->now_s(), victim);
      return task;
    }
    self.steal_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void Scheduler::worker_loop(std::uint32_t w) {
  tls_scheduler = this;
  tls_worker = static_cast<int>(w);
  Worker& self = *workers_[w];
  if (options_.tracer) {
    char track_name[32];
    std::snprintf(track_name, sizeof track_name, "worker %u", w);
    self.trace = options_.tracer->thread_track(track_name);
  }
  std::uint64_t rng_state = mix_seed(options_.seed, w);
  int idle = 0;
  for (;;) {
    Task* task = find_task(w, rng_state);
    if (task) {
      run_task(task, &self);
      idle = 0;
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst) &&
        self.deque.empty_approx() &&
        self.inbox_size.load(std::memory_order_seq_cst) == 0 &&
        pending_.load(std::memory_order_seq_cst) <= 0)
      return;
    // Exponential idle backoff: spin, then yield, then park. Parking never
    // races a wakeup: parked_ is registered under park_mutex_ and the
    // submit side takes the same mutex before notifying.
    ++idle;
    if (idle <= kSpinIters) {
      cpu_relax();
      continue;
    }
    if (idle <= kSpinIters + kYieldIters) {
      std::this_thread::yield();
      continue;
    }
    {
      std::unique_lock lock(park_mutex_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      const auto runnable = [&] {
        return stop_.load(std::memory_order_seq_cst) ||
               self.inbox_size.load(std::memory_order_seq_cst) > 0 ||
               pending_.load(std::memory_order_seq_cst) > 0;
      };
      if (!runnable()) {
        if (self.trace) self.trace->begin_at("park", options_.tracer->now_s());
        const auto start = std::chrono::steady_clock::now();
        park_cv_.wait(lock, runnable);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        self.park_ns.fetch_add(static_cast<std::uint64_t>(ns),
                               std::memory_order_relaxed);
        if (self.trace) self.trace->end_at("park", options_.tracer->now_s());
      }
      parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
    idle = 0;
  }
}

void Scheduler::report_stall(std::int64_t outstanding) {
  if (options_.on_watchdog) {
    options_.on_watchdog(outstanding);
    return;
  }
  std::fprintf(stderr,
               "[pmpl] scheduler watchdog: wait() stalled for %.1fs with "
               "%lld task(s) outstanding\n",
               options_.watchdog_s, static_cast<long long>(outstanding));
}

void Scheduler::wait(TaskGroup& group) {
  const bool watch = options_.watchdog_s > 0.0;
  const int self = current_worker();
  if (self >= 0) {
    // Called from one of our own workers: help execute instead of blocking
    // so that recursive submission (nested parallel_for) cannot deadlock.
    const auto w = static_cast<std::uint32_t>(self);
    std::uint64_t rng_state =
        mix_seed(options_.seed, 0x5157ull + static_cast<std::uint64_t>(w));
    int idle = 0;
    auto last_progress = std::chrono::steady_clock::now();
    std::int64_t last_outstanding =
        group.outstanding_.load(std::memory_order_seq_cst);
    while (!group.finished()) {
      Task* task = find_task(w, rng_state);
      if (task) {
        run_task(task, workers_[w].get());
        idle = 0;
        if (watch) last_progress = std::chrono::steady_clock::now();
        continue;
      }
      // The group's remaining tasks are running on other workers.
      if (++idle <= kSpinIters)
        cpu_relax();
      else
        std::this_thread::yield();
      if (watch && idle > kSpinIters) {
        const auto now = std::chrono::steady_clock::now();
        const std::int64_t outstanding =
            group.outstanding_.load(std::memory_order_seq_cst);
        if (outstanding != last_outstanding) {
          last_outstanding = outstanding;
          last_progress = now;
        } else if (std::chrono::duration<double>(now - last_progress)
                       .count() >= options_.watchdog_s) {
          report_stall(outstanding);
          last_progress = now;
        }
      }
    }
  } else if (!group.finished()) {
    std::unique_lock lock(park_mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const auto done = [&] { return group.finished(); };
    if (!watch) {
      park_cv_.wait(lock, done);
    } else {
      const auto interval = std::chrono::duration<double>(options_.watchdog_s);
      std::int64_t last_outstanding =
          group.outstanding_.load(std::memory_order_seq_cst);
      while (!park_cv_.wait_for(lock, interval, done)) {
        const std::int64_t outstanding =
            group.outstanding_.load(std::memory_order_seq_cst);
        if (outstanding == last_outstanding) {
          lock.unlock();  // never call user code under the park mutex
          report_stall(outstanding);
          lock.lock();
        }
        last_outstanding = outstanding;
      }
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (group.has_error())
    if (auto e = group.take_error()) std::rethrow_exception(e);
}

std::exception_ptr Scheduler::take_orphan_error() {
  std::lock_guard lock(orphan_mutex_);
  return std::exchange(orphan_error_, nullptr);
}

std::vector<WorkerCounters> Scheduler::counters() const {
  std::vector<WorkerCounters> out(size());
  for (std::size_t w = 0; w < size(); ++w) {
    const Worker& src = *workers_[w];
    WorkerCounters& dst = out[w];
    dst.executed_local = src.executed_local.load(std::memory_order_relaxed);
    dst.executed_stolen = src.executed_stolen.load(std::memory_order_relaxed);
    dst.steal_attempts = src.steal_attempts.load(std::memory_order_relaxed);
    dst.steal_failures = src.steal_failures.load(std::memory_order_relaxed);
    dst.park_s =
        static_cast<double>(src.park_ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return out;
}

void parallel_for(Scheduler& sched, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk) {
  if (n == 0) return;
  if (chunk == 0) chunk = std::max<std::size_t>(1, n / (sched.size() * 8));
  TaskGroup group;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    sched.submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }, &group);
  }
  sched.wait(group);
}

bool parallel_for_cancellable(Scheduler& sched, std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancelToken& cancel, std::size_t chunk) {
  if (n == 0) return true;
  if (chunk == 0) chunk = std::max<std::size_t>(1, n / (sched.size() * 8));
  TaskGroup group(&cancel);
  std::atomic<bool> cut_short{false};
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    sched.submit([lo, hi, &fn, &cancel, &cut_short] {
      for (std::size_t i = lo; i < hi; ++i) {
        if (cancel.stop_requested()) {
          cut_short.store(true, std::memory_order_release);
          return;
        }
        fn(i);
      }
    }, &group);
  }
  sched.wait(group);
  return group.skipped() == 0 && !cut_short.load(std::memory_order_acquire);
}

}  // namespace pmpl::runtime
