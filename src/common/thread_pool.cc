#include "common/thread_pool.h"

#include <utility>

namespace fairtopk {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Submissions racing the destructor would be dropped by the drain;
    // the deadlock rule already forbids them (only live scopes submit).
    queue_.push_back(std::move(fn));
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and fully drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace fairtopk
