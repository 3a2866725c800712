#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/macros.h"
#include "util/thread_annotations.h"

namespace dl {

namespace {

// Set while this thread runs ParallelFor tasks, as a helper or as the
// calling thread; `t_owner` is then the calling thread.
thread_local bool t_in_fan_out = false;
thread_local std::thread::id t_owner;

}  // namespace

std::thread::id FanOutOwner() {
  return t_in_fan_out ? t_owner : std::this_thread::get_id();
}

Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  size_t cores = std::max(1u, std::thread::hardware_concurrency());
  size_t helpers = t_in_fan_out ? 0 : std::min(n, cores) - 1;
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) DL_RETURN_IF_ERROR(fn(i));
    return Status::OK();
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  // Leaf (lock_hierarchy.txt): held only to record the first error.
  Mutex mu{"util.parallel_for.mu"};
  Status first_error;
  const std::thread::id owner = std::this_thread::get_id();
  auto work = [&] {
    t_in_fan_out = true;
    t_owner = owner;
    while (!failed.load(std::memory_order_acquire)) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      Status s = fn(i);
      if (!s.ok()) {
        MutexLock lock(mu);
        if (first_error.ok()) first_error = std::move(s);
        failed.store(true, std::memory_order_release);
      }
    }
    t_in_fan_out = false;
  };
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  return first_error;
}

}  // namespace dl
