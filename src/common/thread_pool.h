// ThreadPool: the one pool that runs request lines in fairtopk_serve,
// fed through service/request_pipeline.h by the stdin stream or by
// every TCP connection: a fixed set of workers draining one FIFO
// queue.
// Deliberately work-stealing-free: tasks here are coarse serving units
// (one request line), so a single locked deque is contention-free at
// realistic rates and keeps the completion order reasoning trivial.
//
// Deadlock rule: tasks submitted to a ThreadPool must be LEAVES — they
// must never block on other tasks submitted to the same pool (a full
// pool of blocked waiters starves the queue). A request line obeys
// this: a detect_batch runs its members on the worker that holds the
// line.
#ifndef FAIRTOPK_COMMON_THREAD_POOL_H_
#define FAIRTOPK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairtopk {

/// A fixed-size pool of workers draining one FIFO task queue.
/// Destruction drains: tasks already submitted all run before the
/// workers join (so a scope-local pool is a natural fork/join region).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  /// Schedules `fn` on a worker; never waits for it to run.
  void Submit(std::function<void()> fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;  ///< set by the destructor; queue still drains
  std::vector<std::thread> workers_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_COMMON_THREAD_POOL_H_
