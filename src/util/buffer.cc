#include "util/buffer.h"

#include <algorithm>
#include <cstring>

namespace dl {

namespace {
std::atomic<uint64_t> g_bytes_copied{0};
thread_local uint64_t t_bytes_copied = 0;
}  // namespace

uint64_t TotalBytesCopied() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

uint64_t ThreadBytesCopied() { return t_bytes_copied; }

namespace internal {
void AddBytesCopied(uint64_t n) {
  if (n > 0) {
    g_bytes_copied.fetch_add(n, std::memory_order_relaxed);
    // Per-thread tally so obs::ContextScope can attribute copies to the
    // installed job without cross-charging concurrent jobs' threads.
    t_bytes_copied += n;
  }
}
}  // namespace internal

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

SharedBuffer Buffer::FromVector(ByteBuffer bytes) {
  return std::make_shared<Buffer>(std::move(bytes));
}

SharedBuffer Buffer::CopyOf(ByteView v) {
  internal::AddBytesCopied(v.size());
  return std::make_shared<Buffer>(ByteBuffer(v.begin(), v.end()));
}

std::shared_ptr<Buffer> Buffer::Allocate(size_t n) {
  return std::make_shared<Buffer>(ByteBuffer(n));
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(size_t max_retained_bytes)
    : state_(std::make_shared<State>(max_retained_bytes)) {}

void BufferPool::State::Release(ByteBuffer bytes) {
  MutexLock lock(mu);
  if (retained + bytes.capacity() > max_retained) return;  // frees on return
  retained += bytes.capacity();
  // The size is kept, so AcquireSized of a recycled buffer resizes without
  // zero-filling; Acquire clears it instead.
  free_list.push_back(std::move(bytes));
}

ByteBuffer BufferPool::Take(size_t capacity) {
  state_->acquires.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(state_->mu);
    // Smallest retained buffer that fits without wasting most of itself: a
    // small request must not take a large buffer, which would leave the
    // next large request to allocate afresh. The list is short (bounded by
    // max_retained / typical chunk size), so a linear scan is fine.
    const size_t limit =
        std::max<size_t>(kMinWastedBytes, capacity) + capacity;
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < state_->free_list.size(); ++i) {
      size_t cap = state_->free_list[i].capacity();
      if (cap < capacity || cap > limit) continue;
      if (best == SIZE_MAX ||
          cap < state_->free_list[best].capacity()) {
        best = i;
      }
    }
    if (best != SIZE_MAX) {
      ByteBuffer out = std::move(state_->free_list[best]);
      state_->free_list.erase(state_->free_list.begin() +
                              static_cast<ptrdiff_t>(best));
      state_->retained -= out.capacity();
      state_->reuses.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
  }
  ByteBuffer fresh;
  fresh.reserve(capacity);
  return fresh;
}

ByteBuffer BufferPool::Acquire(size_t capacity_hint) {
  ByteBuffer out = Take(capacity_hint);
  out.clear();
  return out;
}

ByteBuffer BufferPool::AcquireSized(size_t size) {
  // A recycled buffer keeps its old size, so shrinking to `size` writes
  // nothing; only growth past the old size value-initializes bytes.
  ByteBuffer out = Take(size);
  out.resize(size);
  return out;
}

Slice BufferPool::Seal(ByteBuffer bytes) {
  std::weak_ptr<State> weak_state(state_);
  uint64_t sealed_size = bytes.size();
  state_->in_use.fetch_add(sealed_size, std::memory_order_relaxed);
  auto deleter = [weak_state, sealed_size](Buffer* b) {
    std::unique_ptr<Buffer> owned(b);
    if (auto state = weak_state.lock()) {
      state->in_use.fetch_sub(sealed_size, std::memory_order_relaxed);
      state->Release(std::move(owned->bytes_));
    }
  };
  return Slice(SharedBuffer(
      std::shared_ptr<Buffer>(new Buffer(std::move(bytes)), deleter)));
}

BufferPool& BufferPool::Default() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

uint64_t BufferPool::reuses() const {
  return state_->reuses.load(std::memory_order_relaxed);
}

uint64_t BufferPool::retained_bytes() const {
  MutexLock lock(state_->mu);
  return state_->retained;
}

uint64_t BufferPool::acquires() const {
  return state_->acquires.load(std::memory_order_relaxed);
}

uint64_t BufferPool::bytes_in_use() const {
  return state_->in_use.load(std::memory_order_relaxed);
}

}  // namespace dl
