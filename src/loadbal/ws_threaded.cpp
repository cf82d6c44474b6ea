#include "loadbal/ws_threaded.hpp"

#include <atomic>
#include <cassert>

namespace pmpl::loadbal {

std::vector<WorkerStats> run_on_scheduler(
    runtime::Scheduler& scheduler,
    const std::vector<std::function<void()>>& tasks,
    const std::vector<std::uint32_t>& initial) {
  assert(tasks.size() == initial.size());
  const auto workers = static_cast<std::uint32_t>(scheduler.size());

  // Record which worker actually ran each task; local/stolen attribution
  // is relative to the *initial* assignment, which the scheduler's own
  // counters (whose "local" means own-deque) cannot express.
  const auto before = scheduler.counters();
  std::vector<std::atomic<std::int32_t>> executor(tasks.size());
  for (auto& e : executor) e.store(-1, std::memory_order_relaxed);

  runtime::TaskGroup group;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    assert(initial[i] < workers);
    scheduler.submit_to(initial[i],
                        [&scheduler, &tasks, &executor, i] {
                          executor[i].store(scheduler.current_worker(),
                                            std::memory_order_relaxed);
                          tasks[i]();
                        },
                        group);
  }
  scheduler.wait(group);

  std::vector<WorkerStats> stats(workers);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto w = executor[i].load(std::memory_order_relaxed);
    assert(w >= 0);
    if (static_cast<std::uint32_t>(w) == initial[i])
      ++stats[static_cast<std::size_t>(w)].executed_local;
    else
      ++stats[static_cast<std::size_t>(w)].executed_stolen;
  }
  const auto after = scheduler.counters();
  for (std::uint32_t w = 0; w < workers; ++w) {
    stats[w].steal_attempts =
        after[w].steal_attempts - before[w].steal_attempts;
    stats[w].steal_failures =
        after[w].steal_failures - before[w].steal_failures;
    stats[w].park_s = after[w].park_s - before[w].park_s;
  }
  return stats;
}

}  // namespace pmpl::loadbal
