#pragma once

/// \file task_pool.hpp
/// A small fixed-size std::thread pool for index-parallel loops. It is the
/// one parallel runtime of the library: the LOOCV folds of core/loocv.cpp
/// run on one, and so do the trainer's two backward phases and its
/// per-graph encodes. The calling thread takes part in every loop, and the
/// workers live exactly as long as the pool (its destructor joins them).
/// An idle worker polls for the next loop for up to 50 µs before it
/// sleeps, and so does run()'s caller for the workers' finish, so loops
/// started back to back (a trainer's two per mini-batch) skip the kernel's
/// wake-up latency.
///
/// Pools nest without oversubscribing: a pool created while its thread runs
/// a task of a multi-threaded loop gets one thread (see in_task()). So the
/// folds split the cores between them and each fold trains serially, while
/// a lone training outside any pool gets every core.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pnp::nn {

/// Number of CPUs in the calling thread's affinity mask (at least 1).
/// Unlike std::thread::hardware_concurrency(), this honours `taskset` and
/// cgroup cpusets, so a pinned process does not oversubscribe its cores.
int affinity_cpu_count();

class TaskPool {
 public:
  /// `threads` counts the calling thread: threads - 1 workers are started
  /// (none for threads <= 1 or inside a task, and then run() is a plain
  /// loop).
  explicit TaskPool(int threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Threads taking part in a loop, the caller included.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// True while the calling thread executes a task of a run() that more
  /// than one thread takes part in: the cores are then already shared out.
  static bool in_task();

  /// Call fn(i, slot) once for every i in [0, n), in no particular order
  /// and on any thread. `slot` in [0, size()) names the executing thread:
  /// two calls with the same slot never overlap, so per-slot scratch needs
  /// no locking. Returns after every call has returned. If a call throws,
  /// indices not yet started are skipped and the first exception is
  /// rethrown here.
  void run(int n, const std::function<void(int, int)>& fn);

 private:
  void worker_loop(int slot);
  void work(int slot);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_, done_cv_;
  // The current loop; written under mu_ before a generation starts.
  const std::function<void(int, int)>* fn_ = nullptr;
  int n_ = 0;
  std::atomic<int> next_{0};
  std::exception_ptr error_;
  /// Workers not yet finished with the current loop. Written under mu_;
  /// the caller polls it without the lock before it sleeps.
  std::atomic<int> busy_{0};
  /// Loops started so far. Written under mu_; idle workers poll it
  /// without the lock before they sleep.
  std::atomic<std::uint64_t> generation_{0};
  bool stop_ = false;
};

}  // namespace pnp::nn
