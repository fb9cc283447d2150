#include "nn/task_pool.hpp"

#include <sched.h>

#include <chrono>

namespace pnp::nn {

namespace {

/// Set on a pool's worker threads, and on a run()'s caller while it
/// executes tasks next to them.
thread_local bool t_in_task = false;

/// How long a thread polls for the state it waits on before it sleeps on
/// a condition variable. A trainer starts its loops back to back (two per
/// mini-batch), each a fraction of a millisecond long: polling keeps the
/// handoffs off the kernel's wake-up path, whose latency on a shared host
/// is tens of microseconds, and costs an idle pool at most this long.
constexpr std::chrono::microseconds kPollFor{50};

/// Returns once `done()` holds or kPollFor has passed.
template <class Done>
void poll(Done&& done) {
  const auto until = std::chrono::steady_clock::now() + kPollFor;
  while (!done() && std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

int affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

bool TaskPool::in_task() { return t_in_task; }

TaskPool::TaskPool(int threads) {
  if (in_task()) return;
  for (int slot = 1; slot < threads; ++slot)
    workers_.emplace_back([this, slot] { worker_loop(slot); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void TaskPool::run(int n, const std::function<void(int, int)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    busy_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  wake_cv_.notify_all();
  const bool outer = t_in_task;
  t_in_task = true;
  work(0);
  t_in_task = outer;
  poll([this] { return busy_.load(std::memory_order_relaxed) == 0; });
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return busy_ == 0; });
    fn_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void TaskPool::work(int slot) {
  for (;;) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    try {
      (*fn_)(i, slot);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(n_, std::memory_order_relaxed);
    }
  }
}

void TaskPool::worker_loop(int slot) {
  t_in_task = true;
  std::uint64_t seen = 0;
  for (;;) {
    poll([&] { return generation_.load(std::memory_order_relaxed) != seen; });
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    work(slot);
    std::lock_guard<std::mutex> lk(mu_);
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

}  // namespace pnp::nn
