#ifndef DEEPLAKE_STORAGE_STORAGE_H_
#define DEEPLAKE_STORAGE_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/buffer.h"
#include "util/bytes.h"
#include "util/envelope.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace dl::storage {

/// Abstract key/value object store (paper §3.6: "Deep Lake can be plugged
/// into any storage provider"). Keys are '/'-separated paths; values are
/// immutable blobs (chunks, metadata files).
///
/// All implementations are thread-safe: the streaming dataloader issues
/// concurrent Get/GetRange calls from many workers.
///
/// Reads return `Slice` — a view plus keep-alive into a refcounted Buffer
/// (DESIGN.md §10). Providers that already hold the object in memory
/// (MemoryStore, a cache hit in LruCacheStore) hand out a view of the
/// resident buffer with zero copies; the slice stays valid even if the
/// entry is later evicted, replaced or deleted.
class StorageProvider {
 public:
  virtual ~StorageProvider() = default;

  /// Reads the whole object.
  virtual Result<Slice> Get(std::string_view key) = 0;

  /// Range read: bytes [offset, offset+length) of the object. Providers
  /// backed by object storage serve this as an HTTP range request — the
  /// primitive that enables streaming sub-chunk access (paper §3.5).
  virtual Result<Slice> GetRange(std::string_view key, uint64_t offset,
                                 uint64_t length) = 0;

  /// Creates or replaces an object.
  virtual Status Put(std::string_view key, ByteView value) = 0;

  /// Crash-durable write: like Put, but the object is on stable storage
  /// (fsync'd) before the call returns. Providers without a durability
  /// notion (memory, decorators over them) fall back to Put; decorators
  /// forward to their base so the property survives chaining. Version
  /// control uses this for every manifest write on the journaled commit
  /// path (DESIGN.md §9).
  virtual Status PutDurable(std::string_view key, ByteView value) {
    return Put(key, value);
  }

  /// True when Put replaces objects atomically (readers observe the old or
  /// the new value, never a torn prefix) and PutDurable additionally
  /// survives a crash. PosixStore earns this via write-to-temp + rename;
  /// decorators report their base's capability.
  virtual bool atomic_durable_puts() const { return false; }

  /// Drops any cached copy of `key` so the next read goes to the backing
  /// store. No-op for providers that hold no cache; decorators forward it
  /// down the chain. Readers call this when decoded bytes fail integrity
  /// verification — a cache must never pin a corrupt entry forever.
  virtual void Invalidate(std::string_view key) { (void)key; }

  virtual Status Delete(std::string_view key) = 0;

  virtual Result<bool> Exists(std::string_view key) = 0;

  /// Object byte size, NotFound if absent.
  virtual Result<uint64_t> SizeOf(std::string_view key) = 0;

  /// All keys with the given prefix, sorted.
  virtual Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) = 0;

  /// Human-readable backend name for logs and bench tables.
  virtual std::string name() const = 0;
};

using StoragePtr = std::shared_ptr<StorageProvider>;

/// Fully in-memory provider (paper lists "local in-memory storage").
class MemoryStore : public StorageProvider {
 public:
  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override { return "memory"; }

  /// Total bytes currently stored (for tests/benches).
  uint64_t TotalBytes() const;

 private:
  // Leaf lock: held only for map access, never across another store.
  mutable Mutex mu_{"storage.memory_store.mu"};
  // Refcounted values: Get hands out a Slice sharing the object's buffer
  // (zero copy); Delete / Put-replace only drop this reference, so slices
  // handed out earlier stay valid.
  std::map<std::string, SharedBuffer, std::less<>> objects_
      DL_GUARDED_BY(mu_);
};

/// POSIX-filesystem provider rooted at a directory.
class PosixStore : public StorageProvider {
 public:
  explicit PosixStore(std::string root);

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  bool atomic_durable_puts() const override { return true; }
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override { return "posix:" + root_; }

 private:
  std::string FilePath(std::string_view key) const;
  /// Shared Put implementation: write-to-temp + optional fsync + rename.
  Status WriteAtomic(std::string_view key, ByteView value, bool sync);

  std::string root_;
};

/// Names a StorageProvider operation. FaultInjectionStore's op mask and
/// ForwardingStore::Admit both use these bits; PutDurable counts as
/// kFaultPut. Combine as a bitmask.
enum FaultOp : uint32_t {
  kFaultGet = 1u << 0,
  kFaultGetRange = 1u << 1,
  kFaultPut = 1u << 2,
  kFaultDelete = 1u << 3,
  kFaultExists = 1u << 4,
  kFaultSizeOf = 1u << 5,
  kFaultList = 1u << 6,
};
inline constexpr uint32_t kFaultReads = kFaultGet | kFaultGetRange;
inline constexpr uint32_t kFaultWrites = kFaultPut | kFaultDelete;
inline constexpr uint32_t kFaultAllOps =
    kFaultReads | kFaultWrites | kFaultExists | kFaultSizeOf | kFaultList;

/// Base of every storage decorator (paper §3.6: providers chain, e.g. an
/// LRU cache in front of S3). Holds the wrapped provider and forwards every
/// virtual to it, so a decorator overrides only what it changes.
///
/// Each forwarded operation first calls Admit(op); a non-OK status is
/// returned without calling the base. atomic_durable_puts() and
/// Invalidate() always pass straight through: capability and cache
/// invalidation must reach the bottom of the chain even through a faulty
/// or crashed layer.
class ForwardingStore : public StorageProvider {
 public:
  explicit ForwardingStore(StoragePtr base) : base_(std::move(base)) {}

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  bool atomic_durable_puts() const override {
    return base_->atomic_durable_puts();
  }
  void Invalidate(std::string_view key) override { base_->Invalidate(key); }
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;

 protected:
  /// Gate run by each default forward before it calls the base.
  virtual Status Admit(FaultOp op) {
    (void)op;
    return Status::OK();
  }

  const StoragePtr base_;
};

/// Namespaces all keys under `prefix` inside an underlying provider.
class PrefixStore : public ForwardingStore {
 public:
  PrefixStore(StoragePtr base, std::string prefix);

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  void Invalidate(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override {
    return base_->name() + "/" + prefix_;
  }

 private:
  std::string Full(std::string_view key) const;

  std::string prefix_;
};

/// LRU read-through cache chained in front of a slower provider
/// (paper §3.6: "LRU cache of remote S3 storage with local in-memory
/// data"). Writes go through to the base and populate the cache.
///
/// Eviction order is LRU and hits promote. Only a Get miss that does not
/// fit has a choice: evict to make room (LRU), or return the object
/// without caching it (fill only into free room, which keeps a loop larger
/// than the cache from evicting every entry before it comes back). Two
/// shadow directories of keys and sizes replay every Get under each rule,
/// and a saturating selector counts the reads that exactly one of them
/// would have served; the winner decides, and a tie (a fresh cache) is LRU.
/// DESIGN.md §6.
class LruCacheStore : public ForwardingStore {
 public:
  LruCacheStore(StoragePtr base, uint64_t capacity_bytes);

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  /// Forwards down the chain, then evicts `key` from this cache. The evict
  /// path for entries that fail integrity verification downstream — without
  /// it a corrupt cached object would be served forever.
  void Invalidate(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  std::string name() const override { return "lru(" + base_->name() + ")"; }

  // Hit/miss/bypass counts live in the obs::MetricsRegistry (family
  // `storage.lru.*`, labeled with this instance's cache id) so bench
  // reports pick them up with every other metric; these accessors are thin
  // wrappers over the registry counters for test compatibility.
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  /// Bytes served from the cache (hits, including cached range reads) and
  /// bytes read from the base on Get misses: the byte-weighted hit share,
  /// which the op counts hide when small metadata objects hit and chunks
  /// miss.
  uint64_t hit_bytes() const { return hit_bytes_->Value(); }
  uint64_t miss_bytes() const { return miss_bytes_->Value(); }
  /// Get misses returned uncached because the free-room rule was in force
  /// and the object did not fit.
  uint64_t declined_fills() const { return declined_fills_->Value(); }
  /// The rule in force for a Get miss that does not fit: 0 = LRU (evict),
  /// 1 = fill only into free room.
  int fill_policy() const { return static_cast<int>(fill_policy_->Value()); }
  /// Range reads served directly by the base because the full object was
  /// not cached. By design these never populate the cache, so they are not
  /// misses — counting them as such would inflate reported miss rates.
  uint64_t range_bypasses() const { return range_bypasses_->Value(); }
  uint64_t cached_bytes() const;

 private:
  // Entries hold refcounted buffers: a hit hands out a Slice sharing the
  // entry's keep-alive, so eviction/replacement only drops this reference —
  // outstanding slices keep the bytes alive (DESIGN.md §10).
  struct Entry {
    SharedBuffer value;
    std::list<std::string>::iterator lru_it;
  };

  /// What a cache of the same capacity would hold under one fill rule:
  /// keys and sizes in recency order, no values.
  class Shadow {
   public:
    Shadow(uint64_t capacity_bytes, bool free_room_only)
        : capacity_bytes_(capacity_bytes), free_room_only_(free_room_only) {}
    /// Replays a Get of `key` (`size` bytes); true if it would have hit.
    bool Access(const std::string& key, uint64_t size);
    void Erase(std::string_view key);

   private:
    using Order = std::list<std::pair<std::string, uint64_t>>;
    void Trim();

    uint64_t capacity_bytes_;
    bool free_room_only_;
    uint64_t bytes_ = 0;
    Order order_;  // front = most recently used
    std::map<std::string, Order::iterator, std::less<>> index_;
  };

  /// A Get miss whose base read is in flight. Writes and erases of the key
  /// bump `writes`; a fill that sees it moved would cache stale bytes (or
  /// revive an erased key), so it is dropped.
  struct PendingFill {
    int readers = 0;
    uint64_t writes = 0;
  };

  void Touch(const std::string& key) DL_REQUIRES(mu_);
  void Insert(const std::string& key, SharedBuffer value) DL_REQUIRES(mu_);
  void EvictIfNeeded() DL_REQUIRES(mu_);
  /// Replays a Get in both shadows and moves the selector.
  void Duel(const std::string& key, uint64_t size) DL_REQUIRES(mu_);
  /// Caches a Get miss's `value` unless the free-room rule declines it.
  void Fill(const std::string& key, SharedBuffer value) DL_REQUIRES(mu_);
  /// Marks in-flight fills of `key` stale (every write and erase).
  void NoteWrite(std::string_view key) DL_REQUIRES(mu_);
  /// Drops `key` from the cache and both shadows and marks its in-flight
  /// fills stale (Invalidate and Delete).
  void Erase(std::string_view key);

  // Reads that only the free-room shadow hit push the selector up, reads
  // that only the LRU shadow hit push it down; it saturates at ±kSelectorLimit
  // so one rule's long win is undone by that many reads the other serves.
  static constexpr int kSelectorLimit = 8;

  uint64_t capacity_bytes_;
  // Leaf lock by policy: every method releases mu_ before calling into
  // base_ (cache lookups must not serialize behind slow base reads, and
  // the lock order stays trivially acyclic whatever base_ is).
  mutable Mutex mu_{"storage.lru_cache.mu"};
  std::map<std::string, Entry, std::less<>> entries_ DL_GUARDED_BY(mu_);
  // front = most recently used
  std::list<std::string> lru_ DL_GUARDED_BY(mu_);
  uint64_t current_bytes_ DL_GUARDED_BY(mu_) = 0;
  Shadow lru_shadow_ DL_GUARDED_BY(mu_);
  Shadow free_room_shadow_ DL_GUARDED_BY(mu_);
  int selector_ DL_GUARDED_BY(mu_) = 0;  // > 0: fill only into free room
  std::map<std::string, PendingFill, std::less<>> pending_ DL_GUARDED_BY(mu_);
  // Registry-owned counters; the label carries a per-instance id so two
  // caches in one process (or consecutive tests) never share counts.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* hit_bytes_;
  obs::Counter* miss_bytes_;
  obs::Counter* declined_fills_;
  obs::Counter* range_bypasses_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* fill_policy_;
};

/// Wraps a provider and injects failures for robustness tests: every
/// `fail_every`-th operation covered by `op_mask` fails with IOError
/// (a retryable error, see Status::IsRetryable). Operations outside the
/// mask pass through untouched and do not advance the fault counter.
///
/// The default mask covers reads and Put — the data-path operations a
/// flaky object store fails in practice. Pass an explicit mask to target
/// metadata ops (Exists/SizeOf/ListPrefix) or Delete as well.
class FaultInjectionStore : public ForwardingStore {
 public:
  FaultInjectionStore(StoragePtr base, uint64_t fail_every,
                      uint32_t op_mask = kFaultReads | kFaultPut);

  /// Changes the fault period mid-run (0 is normalized to 1, like the
  /// constructor). Lets tests open a dataset cleanly with a huge period,
  /// then arm a tight one for the epoch under test.
  void set_fail_every(uint64_t fail_every) {
    fail_every_ = fail_every == 0 ? 1 : fail_every;
  }

  std::string name() const override {
    return "faulty(" + base_->name() + ")";
  }

 private:
  Status Admit(FaultOp op) override;

  std::atomic<uint64_t> fail_every_;
  uint32_t op_mask_;
  std::atomic<uint64_t> op_count_{0};
};

/// Backoff schedule shared by RetryingStore and
/// version::CommitWithTxnRetries: capped exponential growth with jitter
/// drawn from an Rng seeded with `seed`, so a given (policy, seed) always
/// produces the same sleep sequence — tests assert on it exactly. A seed of
/// 0 is literal to RetryingStore; CommitWithTxnRetries draws one from the
/// clock instead (its default, version::kTxnRetryPolicy, has seed 0).
struct RetryPolicy {
  /// Total attempts per operation, including the first (1 = no retries).
  int max_attempts = 4;
  /// Backoff before the first retry.
  int64_t initial_backoff_us = 1000;
  /// Cap applied to the exponential growth.
  int64_t max_backoff_us = 256 * 1000;
  /// Backoff growth factor per retry.
  double multiplier = 2.0;
  /// Each sleep is drawn uniformly from backoff * [1-jitter, 1+jitter],
  /// de-synchronizing concurrent retriers (thundering-herd avoidance).
  double jitter = 0.25;
  uint64_t seed = 0x5eed;

  /// The backoff (µs) before retry number `retry` (1-based), given one
  /// uniform draw `u` in [0, 1): initial_backoff_us grown by `multiplier`
  /// per retry, capped at max_backoff_us, then spread over
  /// backoff * [1-jitter, 1+jitter).
  int64_t BackoffMicros(int retry, double u) const;
};

/// Decorator that absorbs transient faults from the wrapped provider
/// (paper §4.6 robustness: remote object stores throw 5xx/timeouts
/// routinely; the streaming loader must not lose an epoch to one).
///
/// Every operation is re-attempted while it fails with a retryable status
/// (Status::IsRetryable) until `policy.max_attempts` is reached, sleeping a
/// jittered, capped-exponential backoff between attempts. Permanent errors
/// (NotFound, Corruption, ...) return immediately. On exhaustion the last
/// error is returned unchanged so callers see the root cause.
///
/// Chain it *under* any cache (cache → retry → base): retrying above the
/// cache would re-count hits and re-fetch objects the cache already holds.
/// Counters live in the obs::MetricsRegistry as `storage.retries_attempted`
/// and `storage.retries_exhausted`, labeled {store=retry#<n>(<base>)}.
class RetryingStore : public ForwardingStore {
 public:
  /// Injectable sleep for tests (runs instantly with a recording lambda);
  /// defaults to a real SleepMicros.
  using SleepFn = std::function<void(int64_t micros)>;

  explicit RetryingStore(StoragePtr base, RetryPolicy policy = {},
                         SleepFn sleep = {});

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override { return "retry(" + base_->name() + ")"; }

  const RetryPolicy& policy() const { return policy_; }

  /// Extra attempts issued after a retryable failure.
  uint64_t retries_attempted() const { return retries_attempted_->Value(); }
  /// Operations given up on: every attempt failed with a retryable error
  /// and the per-op attempt budget ran out.
  uint64_t retries_exhausted() const { return retries_exhausted_->Value(); }

  /// The jittered backoff (µs) for retry number `retry` (1-based). Consumes
  /// one draw from the seeded Rng; exposed so tests can derive the expected
  /// sleep sequence.
  int64_t NextBackoffMicros(int retry);

 private:
  /// `op_name`/`key` label the retry-exhausted error event (DESIGN.md §7)
  /// so an operator can see *which* object kept failing, not just a count.
  template <typename Op>
  auto WithRetry(const char* op_name, std::string_view key, Op&& op)
      -> decltype(op());

  RetryPolicy policy_;
  SleepFn sleep_;
  // Leaf lock: guards only the backoff Rng draw, never held across I/O.
  Mutex rng_mu_{"storage.retrying_store.rng_mu"};
  Rng rng_ DL_GUARDED_BY(rng_mu_);
  obs::Counter* retries_attempted_;
  obs::Counter* retries_exhausted_;
};

/// Decorator that publishes per-operation latency histograms, request/byte
/// counters and error counters into the obs::MetricsRegistry, and emits
/// `storage.*` trace spans when tracing is enabled — the measurement layer
/// behind the paper's Fig. 7/8 request-count plots, and the one place
/// storage ops and bytes are counted.
///
/// Chain it *outermost* (instrumented → cache → retry → base): the numbers
/// then describe exactly what the caller experiences — cache hits show up
/// as microsecond ops, retries as one slow op. Wrap an inner layer with a
/// second InstrumentedStore (distinct `layer` label) to measure what the
/// backend sees instead; see DESIGN.md §7.
///
/// Metric families (all labeled {store=<layer>}):
///   storage.op_us{op=get|get_range|put|delete|exists|size_of|list}
///   storage.ops{op=...}   storage.errors{op=...}
///   storage.bytes_read    storage.bytes_written
/// Two stores with the same `layer` share these counters.
class InstrumentedStore : public ForwardingStore {
 public:
  /// `layer` names the metrics label; empty uses base->name().
  explicit InstrumentedStore(StoragePtr base, std::string layer = "");

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override { return "obs(" + base_->name() + ")"; }

  const std::string& layer() const { return layer_; }

  // Thin readers over this layer's registry counters. Operation counts
  // include failed attempts (`storage.ops`); bytes_read covers successful
  // reads only. PutDurable counts as a put.
  uint64_t gets() const { return get_.ops->Value(); }
  uint64_t get_ranges() const { return get_range_.ops->Value(); }
  uint64_t puts() const { return put_.ops->Value(); }
  uint64_t bytes_read() const { return bytes_read_->Value(); }

 private:
  struct OpInstruments {
    obs::Histogram* latency_us;
    obs::Counter* ops;
    obs::Counter* errors;
  };

  OpInstruments MakeOp(const char* op) const;

  std::string layer_;
  OpInstruments get_, get_range_, put_, delete_, exists_, size_of_, list_;
  obs::Counter* bytes_read_;
  obs::Counter* bytes_written_;
};

/// How a CrashPointStore mangles the write it crashes on.
enum class CrashMode {
  /// The write never reaches the base store (power loss before the data
  /// left the page cache). Models an atomic store — or PosixStore's
  /// temp+rename path, where a crash before rename leaves no visible key.
  kMissing,
  /// A strict prefix of the value reaches the base store (in-place write
  /// interrupted midway). Models the non-atomic plain-Put path; impossible
  /// for a store with atomic_durable_puts() once PutDurable is used.
  kTorn,
  /// The write fully reaches the base store but the operation still
  /// reports failure (ack lost after the data landed). Recovery must
  /// tolerate the "new" bytes already being present.
  kDuplicate,
};

const char* CrashModeName(CrashMode mode);

/// Which execution scope a firing crash point kills.
enum class CrashScope {
  /// The whole process: every subsequent operation, from any thread, fails.
  kProcess,
  /// Only the writer that issued the crashing write: subsequent operations
  /// from that writer fail, other threads proceed untouched. A writer is
  /// the thread that owns a ParallelFor fan-out together with its helpers
  /// (util/parallel.h FanOutOwner), so a crash on a flush helper also
  /// kills the thread that started the flush. Models one
  /// member of a group of concurrent committers dying mid-protocol while
  /// its siblings keep publishing (the DESIGN.md §12 concurrent crash
  /// matrix).
  kWriter,
};

const char* CrashScopeName(CrashScope scope);

/// Deterministic crash injector for the crash-matrix tests (DESIGN.md §9):
/// writes (Put/PutDurable) are counted, and write number `crash_at_write`
/// (1-based) is mangled per `mode`; from that point on every operation —
/// reads included — fails with IOError for the crashed scope (the whole
/// process, or just the issuing writer, per CrashScope). The test then
/// reopens the *base* store with a fresh decorator chain and asserts the
/// dataset recovered to exactly the old or the new state.
///
/// Deletes are not counted as crash points but are suppressed after the
/// crash like everything else (within the crashed scope).
class CrashPointStore : public ForwardingStore {
 public:
  CrashPointStore(StoragePtr base, uint64_t crash_at_write, CrashMode mode,
                  CrashScope scope = CrashScope::kProcess);

  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  std::string name() const override {
    return "crash(" + base_->name() + ")";
  }

  /// True once the crash point fired; all subsequent ops fail.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// Writes observed so far (counting the crashed one). Running a workload
  /// once with crash_at_write == 0 (never crash) and reading this gives the
  /// matrix size for the enumeration loop.
  uint64_t writes_seen() const {
    return writes_seen_.load(std::memory_order_relaxed);
  }

 private:
  /// Applies crash handling to one write; returns the status the caller
  /// must surface, or OK when the write should proceed normally.
  Status OnWrite(std::string_view key, ByteView value, bool durable,
                 bool* handled);
  Status Dead() const;
  /// True when the calling thread belongs to the crashed scope.
  bool IsDead() const;
  /// Every operation fails once the calling scope is dead.
  Status Admit(FaultOp op) override;

  const uint64_t crash_at_write_;  // 0 = never crash (pure counter mode)
  const CrashMode mode_;
  const CrashScope scope_;
  std::atomic<uint64_t> writes_seen_{0};
  std::atomic<bool> crashed_{false};
  /// Guards dead_thread_ (kWriter scope). Leaf (lock_hierarchy.txt).
  mutable Mutex mu_{"storage.crash_point.mu"};
  /// The crashed writer's FanOutOwner().
  std::thread::id dead_thread_ DL_GUARDED_BY(mu_);
};

/// Reads `key` and decodes it with `decode` (Slice → Result<T>), which
/// checks the bytes. On Corruption the cached copy is invalidated down the
/// chain and the read and decode retried once — a corrupt cache entry
/// heals, while genuine on-disk corruption still surfaces as
/// Status::Corruption from the second attempt.
template <typename Decode>
auto GetDecoded(StorageProvider& store, std::string_view key, Decode decode)
    -> decltype(decode(Slice())) {
  Result<Slice> bytes = store.Get(key);
  if (!bytes.ok()) return bytes.status();
  auto decoded = decode(bytes.MoveValue());
  if (decoded.ok() || !decoded.status().IsCorruption()) return decoded;
  store.Invalidate(key);
  bytes = store.Get(key);
  if (!bytes.ok()) return bytes.status();
  return decode(bytes.MoveValue());
}

/// GetDecoded with the integrity envelope as the check (legacy raw objects
/// pass through, see EnvelopeUnwrapOrRaw); returns the payload.
inline Result<Slice> GetVerified(StorageProvider& store, std::string_view key) {
  return GetDecoded(store, key, EnvelopeUnwrapOrRaw);
}

}  // namespace dl::storage

#endif  // DEEPLAKE_STORAGE_STORAGE_H_
