#ifndef DEEPLAKE_UTIL_BUFFER_H_
#define DEEPLAKE_UTIL_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace dl {

// ---------------------------------------------------------------------------
// Copy accounting
// ---------------------------------------------------------------------------

/// Process-wide count of bytes deep-copied through the Buffer/Slice layer
/// (Slice::ToBuffer / ToString, Buffer::CopyOf, Slice::CopyOf). The streaming
/// dataloader and benches report per-epoch deltas of this figure as
/// `loader.bytes_copied` — copy elimination is a first-class win alongside
/// throughput (DESIGN.md §10).
uint64_t TotalBytesCopied();

/// The calling thread's share of TotalBytesCopied(). Scoped deltas of this
/// are what obs::ContextScope charges to a job's ResourceMeter — a global
/// delta would cross-charge whatever other jobs' threads copied meanwhile.
uint64_t ThreadBytesCopied();

namespace internal {
void AddBytesCopied(uint64_t n);
}  // namespace internal

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

class Buffer;

/// Shared ownership handle over an immutable Buffer. Copying a SharedBuffer
/// is a refcount bump, never a byte copy.
using SharedBuffer = std::shared_ptr<const Buffer>;

/// Refcounted, immutable-after-publication byte buffer: the single owner of
/// every chunk / manifest payload on the read path. Producers (stores,
/// codecs) fill a freshly allocated Buffer exactly once, then publish it as
/// a SharedBuffer; from that point all consumers see it through `Slice`
/// views and nobody mutates it (DESIGN.md §10 ownership rules).
class Buffer {
 public:
  /// Adopts the vector's allocation — no byte copy.
  static SharedBuffer FromVector(ByteBuffer bytes);

  /// Deep-copies `v` into a fresh buffer. Counted in TotalBytesCopied().
  static SharedBuffer CopyOf(ByteView v);

  /// Allocates `n` zero-initialized bytes the caller fills through
  /// `mutable_data()` before sharing the result as a SharedBuffer.
  static std::shared_ptr<Buffer> Allocate(size_t n);

  explicit Buffer(ByteBuffer bytes) : bytes_(std::move(bytes)) {}

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }

  /// Only valid while the buffer is exclusively owned (pre-publication).
  uint8_t* mutable_data() { return bytes_.data(); }

 private:
  friend class BufferPool;

  ByteBuffer bytes_;
};

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

/// Cheap non-owning view into a SharedBuffer plus the keep-alive handle
/// itself: a Slice keeps the bytes it points at alive no matter what happens
/// to the cache entry / chunk / dataset it was sliced from. Copying a Slice
/// is two pointer copies and a refcount bump. Sub-slicing (`subslice`) is
/// free and shares the same keep-alive.
///
/// A default-constructed Slice is empty. A Slice built via `Borrowed` has no
/// keep-alive — the caller guarantees the viewed bytes outlive it (used only
/// for stack-scoped parsing; see DESIGN.md §10 for when borrowing is legal).
class Slice {
 public:
  Slice() = default;

  /// Whole-buffer view.
  Slice(SharedBuffer buffer)  // NOLINT(runtime/explicit)
      : buffer_(std::move(buffer)) {
    if (buffer_ != nullptr) {
      data_ = buffer_->data();
      size_ = buffer_->size();
    }
  }

  /// View of [offset, offset+length) clamped to the buffer's bounds.
  Slice(SharedBuffer buffer, size_t offset, size_t length)
      : Slice(std::move(buffer)) {
    *this = subslice(offset, length);
  }

  /// Adopts a vector's allocation (no byte copy) and views all of it.
  Slice(ByteBuffer&& bytes)  // NOLINT(runtime/explicit)
      : Slice(Buffer::FromVector(std::move(bytes))) {}

  /// Deep copy of `v` into a fresh owning buffer (counted).
  static Slice CopyOf(ByteView v) { return Slice(Buffer::CopyOf(v)); }

  /// Owning copy of UTF-8 text (counted).
  static Slice FromString(std::string_view s) {
    return CopyOf(ByteView(s));
  }

  /// Non-owning borrow: no keep-alive, caller guarantees lifetime. Never
  /// store a borrowed Slice beyond the borrowed bytes' scope.
  static Slice Borrowed(ByteView v) {
    Slice s;
    s.data_ = v.data();
    s.size_ = v.size();
    return s;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Sub-view [offset, offset+len), clamped; shares this slice's keep-alive.
  Slice subslice(size_t offset, size_t len = SIZE_MAX) const {
    Slice out;
    out.buffer_ = buffer_;
    if (offset > size_) offset = size_;
    if (len > size_ - offset) len = size_ - offset;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  ByteView view() const { return ByteView(data_, size_); }
  operator ByteView() const { return view(); }  // NOLINT(runtime/explicit)

  /// True when this slice holds a keep-alive (owns a reference); false for
  /// default-constructed and Borrowed slices.
  bool owned() const { return buffer_ != nullptr; }
  const SharedBuffer& owner() const { return buffer_; }

  /// Deep copies — counted in TotalBytesCopied(). Hot paths should pass the
  /// Slice along instead (dllint rule `hot-path-copy` flags these in hot
  /// dirs).
  ByteBuffer ToBuffer() const {
    internal::AddBytesCopied(size_);
    return ByteBuffer(data_, data_ + size_);
  }
  std::string ToString() const {
    internal::AddBytesCopied(size_);
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  std::string_view ToStringView() const {
    return std::string_view(reinterpret_cast<const char*>(data_), size_);
  }

  friend bool operator==(const Slice& a, const Slice& b) {
    return a.view() == b.view();
  }
  friend bool operator==(const Slice& a, const ByteBuffer& b) {
    return a.view() == ByteView(b);
  }
  friend bool operator==(const ByteBuffer& a, const Slice& b) {
    return ByteView(a) == b.view();
  }

 private:
  SharedBuffer buffer_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

/// Arena-style recycler for decode buffers: chunk decompression acquires a
/// vector whose capacity was retained from an earlier decode, fills it, and
/// seals it into a Slice. When the last Slice referencing the sealed buffer
/// drops, the allocation returns to the pool instead of the allocator —
/// killing the per-chunk malloc/free churn the flight recorder showed
/// dominating the decode stage.
///
/// Thread-safe. The pool may be destroyed while sealed buffers are still
/// alive: each sealed buffer holds only a weak reference to the pool state,
/// so late releases simply free instead of recycling.
class BufferPool {
 public:
  /// `max_retained_bytes` caps the memory parked in the free list; releases
  /// beyond the cap are freed normally.
  explicit BufferPool(size_t max_retained_bytes = kDefaultRetainedBytes);

  /// A vector with capacity >= `capacity_hint`, recycled when a retained
  /// one is not much larger (see kMinWastedBytes). Returned empty (size 0).
  ByteBuffer Acquire(size_t capacity_hint);

  /// A vector of exactly `size` bytes, recycled when possible. The bytes
  /// are unspecified: a recycled buffer keeps what it held, so only the
  /// part beyond its old size is zero-filled. For decoders that write
  /// every byte (Codec::DecompressExact).
  ByteBuffer AcquireSized(size_t size);

  /// Wraps a filled buffer into an owning Slice whose backing allocation
  /// returns to this pool when the last reference drops.
  Slice Seal(ByteBuffer bytes);

  /// Process-wide default pool used by the chunk decode path.
  static BufferPool& Default();

  /// Observability for tests/benches and the obs layer's process gauges
  /// (obs::SampleProcessGauges exports these as `buffer_pool.*`).
  uint64_t reuses() const;
  uint64_t retained_bytes() const;
  /// Total Acquire() calls (reuses + fresh allocations).
  uint64_t acquires() const;
  /// Bytes inside sealed buffers whose Slices are still alive — the pool's
  /// live occupancy, distinct from `retained_bytes` (the parked free list).
  uint64_t bytes_in_use() const;

  static constexpr size_t kDefaultRetainedBytes = 64ull << 20;
  /// A retained buffer serves a request of n bytes only if its capacity is
  /// at most n + max(n, kMinWastedBytes).
  static constexpr size_t kMinWastedBytes = 64ull << 10;

 private:
  /// The smallest retained buffer of capacity >= `capacity`, as released
  /// (contents and size kept), or a fresh empty one reserved to it.
  ByteBuffer Take(size_t capacity);

  struct State {
    explicit State(size_t cap) : max_retained(cap) {}
    const size_t max_retained;
    mutable Mutex mu{"util.buffer_pool.mu"};
    std::vector<ByteBuffer> free_list DL_GUARDED_BY(mu);
    size_t retained DL_GUARDED_BY(mu) = 0;
    std::atomic<uint64_t> reuses{0};
    std::atomic<uint64_t> acquires{0};
    // Sealed-and-alive bytes; sealed-buffer deleters decrement via their
    // weak State reference, so the figure stays honest across pool death.
    std::atomic<uint64_t> in_use{0};

    void Release(ByteBuffer bytes);
  };

  std::shared_ptr<State> state_;
};

}  // namespace dl

#endif  // DEEPLAKE_UTIL_BUFFER_H_
