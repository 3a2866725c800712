#ifndef DEEPLAKE_UTIL_THREAD_POOL_H_
#define DEEPLAKE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace dl {

/// Fixed-size worker pool with a FIFO queue.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task) DL_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished and the queue is empty.
  void Wait() DL_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() DL_EXCLUDES(mu_);

  Mutex mu_{"thread_pool.mu"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ DL_GUARDED_BY(mu_);
  size_t active_ DL_GUARDED_BY(mu_) = 0;
  bool shutdown_ DL_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // written only in the constructor
};

/// Counting semaphore used to bound in-flight memory (prefetch budget).
class Semaphore {
 public:
  explicit Semaphore(int64_t count) : count_(count) {}

  void Acquire(int64_t n = 1) DL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (count_ < n) cv_.Wait(mu_);
    count_ -= n;
  }

  /// Tries to acquire without blocking; returns false if unavailable.
  bool TryAcquire(int64_t n = 1) DL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (count_ < n) return false;
    count_ -= n;
    return true;
  }

  void Release(int64_t n = 1) DL_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      count_ += n;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_{"semaphore.mu"};
  CondVar cv_;
  int64_t count_ DL_GUARDED_BY(mu_);
};

}  // namespace dl

#endif  // DEEPLAKE_UTIL_THREAD_POOL_H_
