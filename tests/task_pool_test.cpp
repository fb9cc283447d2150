/// Tests for nn::TaskPool, the library's one parallel runtime: every index
/// runs exactly once on a valid slot, a pool created inside a task of a
/// multi-threaded loop runs on one thread (how concurrent LOOCV folds keep
/// their trainers serial), and a throwing task rethrows on the caller.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/task_pool.hpp"

namespace pnp::nn {
namespace {

TEST(TaskPool, RunsEveryIndexOnceOnAValidSlot) {
  TaskPool pool(3);
  ASSERT_EQ(pool.size(), 3);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<bool> bad_slot{false};
  pool.run(100, [&](int i, int slot) {
    if (slot < 0 || slot >= pool.size()) bad_slot = true;
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_FALSE(bad_slot);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, PoolCreatedInsideATaskRunsOnOneThread) {
  EXPECT_FALSE(TaskPool::in_task());
  TaskPool outer(3);
  std::vector<int> inner_size(12, 0);
  std::atomic<int> outside_task{0};
  outer.run(12, [&](int i, int) {
    if (!TaskPool::in_task()) outside_task.fetch_add(1);
    TaskPool inner(4);
    inner_size[static_cast<std::size_t>(i)] = inner.size();
    // The inner loop is a plain loop on this thread: slot 0 throughout.
    inner.run(5, [&](int, int slot) { EXPECT_EQ(slot, 0); });
  });
  EXPECT_EQ(outside_task.load(), 0);
  for (int s : inner_size) EXPECT_EQ(s, 1);

  // The caller leaves the loop outside any task, so its next pool is wide.
  EXPECT_FALSE(TaskPool::in_task());
  EXPECT_EQ(TaskPool(4).size(), 4);
}

TEST(TaskPool, LoneTaskKeepsTheCores) {
  // A loop of one task runs on the caller alone, which then still owns
  // every core: a pool it creates is as wide as asked.
  TaskPool outer(3);
  int inner_size = 0;
  outer.run(1, [&](int, int) { inner_size = TaskPool(4).size(); });
  EXPECT_EQ(inner_size, 4);
}

TEST(TaskPool, ThrowingTaskRethrowsOnTheCaller) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.run(64, [&](int i, int) {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("fold 5 failed");
    });
    FAIL() << "run() returned without rethrowing";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "fold 5 failed");
  }
  EXPECT_LE(ran.load(), 64);
  EXPECT_FALSE(TaskPool::in_task());

  // The pool stays usable after a failed loop.
  std::atomic<int> sum{0};
  pool.run(10, [&](int i, int) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

}  // namespace
}  // namespace pnp::nn
