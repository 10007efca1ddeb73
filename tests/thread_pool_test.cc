// Unit tests for common/thread_pool.h: task delivery, destructor
// drain, and submission from worker threads.
#include "common/thread_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairtopk {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains: every task runs before the workers join.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  while (!ran.load()) std::this_thread::yield();
}

TEST(ThreadPoolTest, TasksRunOffTheSubmittingThread) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    off_thread.store(std::this_thread::get_id() != caller);
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(off_thread.load());
}

TEST(ThreadPoolTest, SubmitFromWorkerThreads) {
  // A leaf task may itself submit further leaves (it only must not
  // WAIT on them). The nested submissions still drain before join.
  std::atomic<int> nested_run{0};
  std::atomic<int> outer_run{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&pool, &nested_run, &outer_run] {
        pool.Submit([&nested_run] {
          nested_run.fetch_add(1, std::memory_order_relaxed);
        });
        // Count AFTER the nested submit, so the spin below proves all
        // 10 nested tasks were enqueued before the destructor runs
        // (Submit racing the destructor is outside the contract).
        outer_run.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (outer_run.load() < 10) std::this_thread::yield();
  }
  EXPECT_EQ(nested_run.load(), 10);
}

}  // namespace
}  // namespace fairtopk
