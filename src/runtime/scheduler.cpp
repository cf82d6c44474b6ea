#include "runtime/scheduler.hpp"

#include <algorithm>
#include <array>
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

/// One parallel_for call. The caller and its runners claim `chunk` indices
/// at a time from `next`. A runner counts itself in `in_flight` before its
/// first claim and out after its last item; the caller returns once the
/// cursor is spent and `in_flight` reads 0. All of these are seq_cst, so a
/// runner that claimed an index before the cursor ran out is always seen
/// in flight. `fn` and `cancel` are the caller's, so they are touched only
/// after a successful claim; a runner that starts after the caller has
/// returned finds the cursor spent and touches nothing but this record,
/// which the caller and every queued runner own one reference each.
struct Scheduler::Wave {
  Wave(std::size_t items, std::size_t chunk_size,
       const std::function<void(std::size_t)>& body, const CancelToken& token,
       std::int64_t owners)
      : n(items), chunk(chunk_size), fn(&body), cancel(&token), refs(owners) {
    runner.wave = this;
  }

  /// Claim and run chunks until the cursor is spent (true) or the token
  /// fires (false). An item's exception is latched, the first one wins,
  /// and the rest of its chunk is skipped, as a task's would be.
  bool drain() noexcept {
    std::size_t ran = 0;
    bool stopped = false;
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_seq_cst);
      if (lo >= n) break;
      const std::size_t hi = std::min(n, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          if (cancel->stop_requested()) {
            stopped = true;
            break;
          }
          ++ran;
          (*fn)(i);
        }
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_acq_rel))
          error = std::current_exception();
      }
      if (stopped) break;
    }
    done.fetch_add(ran, std::memory_order_relaxed);
    return !stopped;
  }

  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>* const fn;
  const CancelToken* const cancel;
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<std::size_t> done{0};  ///< items started
  std::atomic<std::int64_t> refs;
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< written by the claimer that set `failed`
  Task runner;
};

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

void Scheduler::wake_waiters() {
  if (waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void Scheduler::enqueue_runners(Task* runner, std::size_t count) {
  const int self = current_worker();
  if (self >= 0) {
    Worker& own = *workers_[static_cast<std::size_t>(self)];
    for (std::size_t i = 0; i < count; ++i) own.deque.push(runner);
  } else {
    assert(count <= size());
    const std::uint32_t first = next_inbox_.fetch_add(
        static_cast<std::uint32_t>(count), std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < count; ++i) {
      Worker& target =
          *workers_[(first + i) % static_cast<std::uint32_t>(size())];
      std::lock_guard lock(target.inbox_mutex);
      target.inbox.push_back(runner);
      target.inbox_size.store(static_cast<std::int64_t>(target.inbox.size()),
                              std::memory_order_seq_cst);
    }
  }
  pending_.fetch_add(static_cast<std::int64_t>(count),
                     std::memory_order_seq_cst);
  wake_all();
}

void Scheduler::submit(std::function<void()> fn, TaskGroup& group) {
  const int self = current_worker();
  enqueue(new Task{std::move(fn), &group},
          self >= 0 ? static_cast<std::uint32_t>(self)
                    : next_inbox_.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<std::uint32_t>(size()));
}

void Scheduler::submit_to(std::uint32_t worker, std::function<void()> fn,
                          TaskGroup& group) {
  assert(worker < size());
  enqueue(new Task{std::move(fn), &group}, worker);
}

void Scheduler::enqueue(Task* task, std::uint32_t target) {
  task->group->outstanding_.fetch_add(1, std::memory_order_seq_cst);
  Worker& w = *workers_[target];
  if (current_worker() == static_cast<int>(target)) {
    w.deque.push(task);
  } else {
    std::lock_guard lock(w.inbox_mutex);
    w.inbox.push_back(task);
    w.inbox_size.store(static_cast<std::int64_t>(w.inbox.size()),
                       std::memory_order_seq_cst);
  }
  pending_.fetch_add(1, std::memory_order_seq_cst);
  wake_all();
}

void Scheduler::run_task(Task* task, Worker* self) {
  TraceBuffer* const trace = self ? self->trace : nullptr;
  if (Wave* wave = task->wave) {
    if (trace) trace->begin_at("task", options_.tracer->now_s());
    wave->in_flight.fetch_add(1, std::memory_order_seq_cst);
    wave->drain();
    // The caller may be parked on in_flight; only scheduler members and
    // the record (still owned through this runner's reference) are touched.
    if (wave->in_flight.fetch_sub(1, std::memory_order_seq_cst) == 1)
      wake_waiters();
    wave->release();
    if (trace) trace->end_at("task", options_.tracer->now_s());
    return;
  }
  TaskGroup* group = task->group;
  if (trace) trace->begin_at("task", options_.tracer->now_s());
  try {
    task->fn();
  } catch (...) {
    // Never let a task exception unwind the worker loop (std::terminate):
    // latch it on the group, which rethrows it at its join.
    group->store_error(std::current_exception());
  }
  if (trace) trace->end_at("task", options_.tracer->now_s());
  delete task;
  if (group->outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
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
    std::array<Task*, kStealBatchMax> extras;
    std::size_t got = 0;
    while (got < want && v.deque.steal(extras[got])) ++got;
    while (got > 0) self.deque.push(extras[--got]);
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
    std::vector<Task*>& drained = self.drained;
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

void Scheduler::wait(TaskGroup& group) {
  await(group.outstanding_);
  if (group.has_error())
    if (auto e = group.take_error()) std::rethrow_exception(e);
}

void Scheduler::await(const std::atomic<std::int64_t>& remaining) {
  const int self = current_worker();
  const auto finished = [&] {
    return remaining.load(std::memory_order_seq_cst) == 0;
  };
  if (self >= 0) {
    // Called from one of our own workers: help execute instead of blocking
    // so that recursive submission (nested parallel_for) cannot deadlock.
    const auto w = static_cast<std::uint32_t>(self);
    std::uint64_t rng_state =
        mix_seed(options_.seed, 0x5157ull + static_cast<std::uint64_t>(w));
    int idle = 0;
    while (!finished()) {
      Task* task = find_task(w, rng_state);
      if (task) {
        run_task(task, workers_[w].get());
        idle = 0;
        continue;
      }
      // What remains is running on other workers.
      if (++idle <= kSpinIters)
        cpu_relax();
      else
        std::this_thread::yield();
    }
  } else if (!finished()) {
    std::unique_lock lock(park_mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait(lock, finished);
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
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

bool Scheduler::run_wave(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         const CancelToken& cancel, std::size_t chunk) {
  if (n == 0) return true;
  chunk = chunk == 0 ? std::max<std::size_t>(1, n / (size() * 8))
                     : std::min(chunk, n);
  // One runner per other thread that can claim, and never more runners
  // than chunks beyond the one the caller takes.
  const bool external = current_worker() < 0;
  const std::size_t runners =
      std::min(external ? size() : size() - 1, (n - 1) / chunk);
  Wave* wave = new Wave(n, chunk, fn, cancel,
                        static_cast<std::int64_t>(runners) + 1);
  if (runners > 0) enqueue_runners(&wave->runner, runners);
  // A fired token leaves the cursor unspent: close it, so no runner claims
  // an index (and touches `fn`) once the caller stops waiting.
  if (!wave->drain()) wave->next.store(n, std::memory_order_seq_cst);
  if (external) {
    // The last items usually finish within microseconds of the caller's
    // own: spin, then yield, before paying for a park and a wake.
    for (int idle = 0; idle < kSpinIters + kYieldIters &&
                       wave->in_flight.load(std::memory_order_seq_cst) != 0;
         ++idle) {
      if (idle < kSpinIters)
        cpu_relax();
      else
        std::this_thread::yield();
    }
  }
  await(wave->in_flight);
  const bool complete = wave->done.load(std::memory_order_relaxed) == n;
  std::exception_ptr error =
      wave->failed.load(std::memory_order_acquire) ? std::move(wave->error)
                                                   : nullptr;
  wave->release();
  if (error) std::rethrow_exception(error);
  return complete;
}

void parallel_for(Scheduler& sched, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk) {
  const CancelToken never;
  parallel_for_cancellable(sched, n, fn, never, chunk);
}

bool parallel_for_cancellable(Scheduler& sched, std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancelToken& cancel, std::size_t chunk) {
  return sched.run_wave(n, fn, cancel, chunk);
}

}  // namespace pmpl::runtime
