#ifndef DEEPLAKE_UTIL_PARALLEL_H_
#define DEEPLAKE_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <thread>

#include "util/status.h"

namespace dl {

/// One scoped fan-out: runs fn(0), ..., fn(n - 1) on the calling thread
/// and min(n, hardware_concurrency()) - 1 helper threads started for this
/// call. Every helper is joined before it returns, so no thread outlives
/// the call. Tasks are claimed in index order; once a task fails no new
/// one starts, and the first error reported is the call's status. Tasks
/// write their results into caller-owned slots by index, so what the call
/// produces never depends on scheduling. A call made from inside a task
/// runs its tasks inline, in order, so nested use never oversubscribes.
Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

/// The thread that owns the fan-out this thread works for: inside a
/// ParallelFor task, the thread that called ParallelFor; elsewhere, this
/// thread. Per-writer state (a crashed writer's identity) keys on it, so a
/// writer's helpers share its fate.
std::thread::id FanOutOwner();

}  // namespace dl

#endif  // DEEPLAKE_UTIL_PARALLEL_H_
