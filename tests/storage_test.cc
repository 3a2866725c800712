// Tests for storage providers: Memory, Posix and every decorator. The same
// behavioural suite runs against every provider via a parameterized fixture
// (paper §3.6: format is provider-agnostic).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <latch>
#include <list>
#include <memory>
#include <thread>

#include "sim/network_model.h"
#include "storage/storage.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dl::storage {
namespace {

using Factory = std::function<StoragePtr()>;

StoragePtr MakePosix() {
  static int counter = 0;
  std::string dir = std::filesystem::temp_directory_path() /
                    ("dl_storage_test_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return std::make_shared<PosixStore>(dir);
}

struct ProviderCase {
  std::string label;
  Factory factory;
};

class StorageProviderTest : public ::testing::TestWithParam<ProviderCase> {
 protected:
  void SetUp() override { store_ = GetParam().factory(); }
  StoragePtr store_;
};

TEST_P(StorageProviderTest, PutGetRoundTrip) {
  ByteBuffer value = BufferFromString("tensor chunk payload");
  ASSERT_TRUE(store_->Put("tensors/images/chunks/c0", ByteView(value)).ok());
  auto got = store_->Get("tensors/images/chunks/c0");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, value);
}

TEST_P(StorageProviderTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store_->Get("nope").status().IsNotFound());
  EXPECT_TRUE(store_->SizeOf("nope").status().IsNotFound());
  EXPECT_FALSE(*store_->Exists("nope"));
}

TEST_P(StorageProviderTest, OverwriteReplaces) {
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("v1"))).ok());
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("value2"))).ok());
  EXPECT_EQ(store_->Get("k")->size(), 6u);
  EXPECT_EQ(*store_->SizeOf("k"), 6u);
}

TEST_P(StorageProviderTest, RangeReads) {
  ByteBuffer value = BufferFromString("0123456789");
  ASSERT_TRUE(store_->Put("obj", ByteView(value)).ok());
  EXPECT_EQ(store_->GetRange("obj", 2, 3)->size(), 3u);
  EXPECT_EQ(ByteView(*store_->GetRange("obj", 2, 3)).ToString(), "234");
  // Length clamped to the object end.
  EXPECT_EQ(ByteView(*store_->GetRange("obj", 8, 100)).ToString(), "89");
  // Start past the end is OutOfRange.
  EXPECT_TRUE(store_->GetRange("obj", 11, 1).status().IsOutOfRange());
  // Empty range at the exact end is fine.
  EXPECT_EQ(store_->GetRange("obj", 10, 5)->size(), 0u);
}

TEST_P(StorageProviderTest, DeleteRemoves) {
  ASSERT_TRUE(store_->Put("k", ByteView(std::string_view("v"))).ok());
  ASSERT_TRUE(*store_->Exists("k"));
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_FALSE(*store_->Exists("k"));
  // Deleting a missing key is idempotent.
  EXPECT_TRUE(store_->Delete("k").ok());
}

TEST_P(StorageProviderTest, ListPrefixSorted) {
  for (const char* k : {"t/a/c1", "t/a/c0", "t/b/c0", "u/x"}) {
    ASSERT_TRUE(store_->Put(k, ByteView(std::string_view("x"))).ok());
  }
  auto keys = store_->ListPrefix("t/");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 3u);
  EXPECT_EQ((*keys)[0], "t/a/c0");
  EXPECT_EQ((*keys)[1], "t/a/c1");
  EXPECT_EQ((*keys)[2], "t/b/c0");
  auto all = store_->ListPrefix("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
}

TEST_P(StorageProviderTest, EmptyValueOk) {
  ASSERT_TRUE(store_->Put("empty", ByteView()).ok());
  EXPECT_EQ(store_->Get("empty")->size(), 0u);
  EXPECT_EQ(*store_->SizeOf("empty"), 0u);
}

TEST_P(StorageProviderTest, LargeBinaryRoundTrip) {
  Rng rng(11);
  ByteBuffer value(1 << 20);
  for (auto& b : value) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(store_->Put("big", ByteView(value)).ok());
  EXPECT_EQ(*store_->Get("big"), value);
  auto mid = store_->GetRange("big", 500000, 1024);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(ByteView(*mid),
            ByteView(value.data() + 500000, 1024));
}

TEST_P(StorageProviderTest, ConcurrentReadersAndWriters) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "c/" + std::to_string(t) + "/" + std::to_string(i);
        std::string val = "value-" + key;
        if (!store_->Put(key, ByteView(std::string_view(val))).ok()) {
          failures++;
          continue;
        }
        auto got = store_->Get(key);
        if (!got.ok() || ByteView(*got).ToString() != val) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Providers, StorageProviderTest,
    ::testing::Values(
        ProviderCase{"memory", [] { return std::make_shared<MemoryStore>(); }},
        ProviderCase{"posix", MakePosix},
        ProviderCase{"prefix",
                     [] {
                       return std::make_shared<PrefixStore>(
                           std::make_shared<MemoryStore>(), "ns/ds1");
                     }},
        ProviderCase{"lru",
                     [] {
                       return std::make_shared<LruCacheStore>(
                           std::make_shared<MemoryStore>(), 64 << 20);
                     }},
        ProviderCase{"retry",
                     [] {
                       return std::make_shared<RetryingStore>(
                           std::make_shared<MemoryStore>());
                     }},
        ProviderCase{"instrumented",
                     [] {
                       return std::make_shared<InstrumentedStore>(
                           std::make_shared<MemoryStore>(), "conformance");
                     }},
        ProviderCase{"faulty",
                     [] {
                       return std::make_shared<FaultInjectionStore>(
                           std::make_shared<MemoryStore>(), uint64_t{1} << 62,
                           kFaultAllOps);
                     }},
        ProviderCase{"crash",
                     [] {
                       return std::make_shared<CrashPointStore>(
                           std::make_shared<MemoryStore>(), 0,
                           CrashMode::kMissing);
                     }},
        ProviderCase{"sim",
                     [] {
                       sim::NetworkModel zero_latency;
                       zero_latency.bandwidth_bytes_per_sec = 1e15;
                       return std::make_shared<sim::SimulatedObjectStore>(
                           std::make_shared<MemoryStore>(), zero_latency);
                     }}),
    [](const ::testing::TestParamInfo<ProviderCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// ForwardingStore: what every decorator must pass down the chain
// ---------------------------------------------------------------------------

/// MemoryStore that records which durability and cache calls reached it.
class ProbeStore : public MemoryStore {
 public:
  explicit ProbeStore(bool atomic) : atomic_(atomic) {}
  Status PutDurable(std::string_view key, ByteView value) override {
    ++durable_puts;
    return Put(key, value);
  }
  bool atomic_durable_puts() const override { return atomic_; }
  void Invalidate(std::string_view) override { ++invalidations; }

  std::atomic<int> durable_puts{0};
  std::atomic<int> invalidations{0};

 private:
  const bool atomic_;
};

struct DecoratorCase {
  std::string label;
  std::function<StoragePtr(StoragePtr)> wrap;
};

class DecoratorForwardingTest : public ::testing::TestWithParam<DecoratorCase> {
};

TEST_P(DecoratorForwardingTest, DurabilityAndInvalidationReachTheBase) {
  for (bool atomic : {true, false}) {
    auto probe = std::make_shared<ProbeStore>(atomic);
    StoragePtr store = GetParam().wrap(probe);
    EXPECT_EQ(store->atomic_durable_puts(), atomic);
    ASSERT_TRUE(store->PutDurable("k", ByteView(std::string_view("v"))).ok());
    EXPECT_EQ(probe->durable_puts.load(), 1);
    store->Invalidate("k");
    EXPECT_EQ(probe->invalidations.load(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decorators, DecoratorForwardingTest,
    ::testing::Values(
        DecoratorCase{"prefix",
                      [](StoragePtr b) {
                        return std::make_shared<PrefixStore>(b, "ns");
                      }},
        DecoratorCase{"lru",
                      [](StoragePtr b) {
                        return std::make_shared<LruCacheStore>(b, 1 << 20);
                      }},
        DecoratorCase{"faulty",
                      [](StoragePtr b) {
                        return std::make_shared<FaultInjectionStore>(
                            b, uint64_t{1} << 62, kFaultAllOps);
                      }},
        DecoratorCase{"retry",
                      [](StoragePtr b) {
                        return std::make_shared<RetryingStore>(b);
                      }},
        DecoratorCase{"instrumented",
                      [](StoragePtr b) {
                        return std::make_shared<InstrumentedStore>(
                            b, "conformance");
                      }},
        DecoratorCase{"crash",
                      [](StoragePtr b) {
                        return std::make_shared<CrashPointStore>(
                            b, 0, CrashMode::kMissing);
                      }},
        DecoratorCase{"sim",
                      [](StoragePtr b) {
                        sim::NetworkModel zero_latency;
                        zero_latency.bandwidth_bytes_per_sec = 1e15;
                        return std::make_shared<sim::SimulatedObjectStore>(
                            b, zero_latency);
                      }}),
    [](const ::testing::TestParamInfo<DecoratorCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// LRU-specific behaviour
// ---------------------------------------------------------------------------

TEST(LruCacheStoreTest, ServesHitsWithoutBase) {
  auto base = std::make_shared<InstrumentedStore>(
      std::make_shared<MemoryStore>(), "lru-test-base");
  LruCacheStore cache(base, 1 << 20);
  ASSERT_TRUE(cache.Put("k", ByteView(std::string_view("v"))).ok());
  uint64_t base_gets_before = base->gets();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Get("k").ok());
  EXPECT_EQ(base->gets(), base_gets_before);
  EXPECT_GE(cache.hits(), 5u);
}

TEST(LruCacheStoreTest, EvictsLeastRecentlyUsed) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 300);
  ByteBuffer blob(100, 0xAB);
  ASSERT_TRUE(cache.Put("a", ByteView(blob)).ok());
  ASSERT_TRUE(cache.Put("b", ByteView(blob)).ok());
  ASSERT_TRUE(cache.Put("c", ByteView(blob)).ok());
  // Touch "a" so "b" becomes the LRU victim.
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Put("d", ByteView(blob)).ok());  // evicts b
  EXPECT_LE(cache.cached_bytes(), 300u);
  uint64_t misses_before = cache.misses();
  ASSERT_TRUE(cache.Get("b").ok());  // must go to base
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(LruCacheStoreTest, CachedRangeReadTouchesNoBackend) {
  // Regression: GetRange on a cached key used to bypass the cache and hit
  // the base store even though every requested byte was already resident.
  // It must now be served as a zero-copy slice of the cached entry.
  auto base = std::make_shared<InstrumentedStore>(
      std::make_shared<MemoryStore>(), "lru-test-base");
  LruCacheStore cache(base, 1 << 20);
  ByteBuffer blob(1000);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(cache.Put("k", ByteView(blob)).ok());

  uint64_t base_gets = base->gets();
  uint64_t base_ranges = base->get_ranges();
  uint64_t bypasses = cache.range_bypasses();
  uint64_t hits = cache.hits();

  auto r = cache.GetRange("k", 100, 50);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ((*r)[i], static_cast<uint8_t>(100 + i));
  }
  // Zero backend I/O: neither a Get nor a GetRange reached the base store.
  EXPECT_EQ(base->gets(), base_gets);
  EXPECT_EQ(base->get_ranges(), base_ranges);
  EXPECT_EQ(cache.range_bypasses(), bypasses);  // not counted as a bypass
  EXPECT_EQ(cache.hits(), hits + 1);            // counted as a hit
  // The slice aliases the cached entry's buffer rather than copying it.
  ASSERT_TRUE(r->owned());
  EXPECT_EQ(r->owner()->size(), blob.size());

  // A range on an uncached key still goes to the base (the bypass path).
  ASSERT_TRUE(base->Put("cold", ByteView(blob)).ok());
  auto cold = cache.GetRange("cold", 0, 10);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.range_bypasses(), bypasses + 1);
}

TEST(LruCacheStoreTest, OversizeObjectsBypassCache) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 10);
  ByteBuffer blob(100, 1);
  ASSERT_TRUE(cache.Put("big", ByteView(blob)).ok());
  EXPECT_EQ(cache.cached_bytes(), 0u);
  EXPECT_EQ(cache.Get("big")->size(), 100u);
}

TEST(LruCacheStoreTest, DeleteInvalidates) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, 1 << 20);
  ASSERT_TRUE(cache.Put("k", ByteView(std::string_view("v"))).ok());
  ASSERT_TRUE(cache.Delete("k").ok());
  EXPECT_TRUE(cache.Get("k").status().IsNotFound());
}

/// Holds its first Get after the base read returns, until the test
/// releases it, so a write can land while a cache miss is in flight.
class GateStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  Result<Slice> Get(std::string_view key) override {
    Result<Slice> got = base_->Get(key);
    if (armed_.exchange(false)) {
      read.count_down();
      release.wait();
    }
    return got;
  }
  std::string name() const override { return "gate(" + base_->name() + ")"; }

  std::latch read{1};
  std::latch release{1};

 private:
  std::atomic<bool> armed_{true};
};

// A miss reads v1, then a write lands before the miss fills. The fill must
// not replace the write's entry, revive a deleted key, or pin bytes that
// were invalidated while it was in flight.
TEST(LruCacheStoreTest, FillDoesNotUndoAWriteThatLandedDuringTheMiss) {
  const ByteBuffer v1 = BufferFromString("version one");
  const ByteBuffer v2 = BufferFromString("version two");
  for (std::string write : {"put", "delete", "invalidate"}) {
    SCOPED_TRACE(write);
    auto memory = std::make_shared<MemoryStore>();
    ASSERT_TRUE(memory->Put("k", ByteView(v1)).ok());
    auto gate = std::make_shared<GateStore>(memory);
    LruCacheStore cache(gate, 1 << 20);
    std::thread miss([&] {
      auto got = cache.Get("k");
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, v1);
    });
    gate->read.wait();
    // EXPECT, not ASSERT: the miss thread must be released and joined.
    if (write == "put") {
      EXPECT_TRUE(cache.Put("k", ByteView(v2)).ok());
    } else if (write == "delete") {
      EXPECT_TRUE(cache.Delete("k").ok());
    } else {
      // The object changed below the cache (a repaired copy); the reader
      // that saw v1 invalidates.
      EXPECT_TRUE(memory->Put("k", ByteView(v2)).ok());
      cache.Invalidate("k");
    }
    gate->release.count_down();
    miss.join();
    auto after = cache.Get("k");
    if (write == "delete") {
      EXPECT_TRUE(after.status().IsNotFound()) << after.status();
    } else {
      ASSERT_TRUE(after.ok()) << after.status();
      EXPECT_EQ(*after, v2);
    }
  }
}

// ---------------------------------------------------------------------------
// LRU fill rule: plain LRU duels fill-only-into-free-room
// ---------------------------------------------------------------------------

constexpr size_t kLoopObjectBytes = 1000;

/// Stores `n` equal-size objects under `prefix` straight into `base`.
std::vector<std::string> PutLoopObjects(MemoryStore& base,
                                        const std::string& prefix, int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(prefix + std::to_string(i));
    ByteBuffer value(kLoopObjectBytes, static_cast<uint8_t>(i));
    EXPECT_TRUE(base.Put(keys.back(), ByteView(value)).ok());
  }
  return keys;
}

/// `passes` reads of every key, each pass in a fresh shuffle drawn from
/// `rng`: the access pattern of shuffled training epochs over chunks.
std::vector<std::vector<std::string>> ShuffledPasses(
    std::vector<std::string> keys, int passes, Rng& rng) {
  std::vector<std::vector<std::string>> trace;
  for (int p = 0; p < passes; ++p) {
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }
    trace.push_back(keys);
  }
  return trace;
}

/// Reads each pass through `cache` and returns the hits of each pass.
std::vector<uint64_t> HitsPerPass(
    LruCacheStore& cache, const std::vector<std::vector<std::string>>& trace) {
  std::vector<uint64_t> hits;
  for (const auto& pass : trace) {
    uint64_t before = cache.hits();
    for (const std::string& key : pass) EXPECT_TRUE(cache.Get(key).ok());
    hits.push_back(cache.hits() - before);
  }
  return hits;
}

/// Plain LRU over equal-size objects, `slots` of them: the reference the
/// adaptive cache must beat on a loop larger than itself.
std::vector<uint64_t> PlainLruHitsPerPass(
    size_t slots, const std::vector<std::vector<std::string>>& trace) {
  std::list<std::string> order;  // front = most recently used
  std::vector<uint64_t> hits;
  for (const auto& pass : trace) {
    uint64_t h = 0;
    for (const std::string& key : pass) {
      auto it = std::find(order.begin(), order.end(), key);
      if (it != order.end()) {
        ++h;
        order.erase(it);
      } else if (order.size() == slots) {
        order.pop_back();
      }
      order.push_front(key);
    }
    hits.push_back(h);
  }
  return hits;
}

constexpr int kLoopObjects = 48;
constexpr int kCacheObjects = 16;
constexpr uint64_t kLoopSeed = 0x5eed0001;

TEST(LruCacheStoreTest, ShuffledLoopLargerThanTheCacheKeepsItsResidents) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, kCacheObjects * kLoopObjectBytes);
  Rng rng(kLoopSeed);
  auto trace =
      ShuffledPasses(PutLoopObjects(*base, "loop/", kLoopObjects), 10, rng);
  std::vector<uint64_t> hits = HitsPerPass(cache, trace);
  std::vector<uint64_t> reference = PlainLruHitsPerPass(kCacheObjects, trace);
  uint64_t reference_hits = 0;
  for (size_t p = 2; p < hits.size(); ++p) {
    SCOPED_TRACE("pass " + std::to_string(p + 1));
    EXPECT_GE(hits[p], kCacheObjects - 1u);
    reference_hits += reference[p];
  }
  // Plain LRU keeps only what the previous pass read last.
  EXPECT_LE(reference_hits, 6u * (hits.size() - 2));
  EXPECT_EQ(cache.fill_policy(), 1);
  EXPECT_GT(cache.declined_fills(), 0u);
  EXPECT_LE(cache.cached_bytes(), kCacheObjects * kLoopObjectBytes);
}

TEST(LruCacheStoreTest, ReturnsToLruWhenTheWorkingSetFits) {
  auto base = std::make_shared<MemoryStore>();
  LruCacheStore cache(base, kCacheObjects * kLoopObjectBytes);
  Rng rng(kLoopSeed);
  HitsPerPass(cache, ShuffledPasses(PutLoopObjects(*base, "loop/",
                                                   kLoopObjects),
                                    10, rng));
  ASSERT_EQ(cache.fill_policy(), 1);
  // Eight new objects, read over and over: only LRU would cache them. Pass
  // 1 misses both shadows (the free-room one is full); pass 2 hits only
  // the LRU shadow, eight reads that bring the saturated selector back to
  // LRU; pass 3 refills what pass 2 declined; from pass 4 on all hit.
  auto trace = ShuffledPasses(PutLoopObjects(*base, "hot/", 8), 5, rng);
  std::vector<uint64_t> first = HitsPerPass(cache, {trace[0], trace[1]});
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(cache.fill_policy(), 0);
  std::vector<uint64_t> later =
      HitsPerPass(cache, {trace[2], trace[3], trace[4]});
  EXPECT_EQ(later[1], 8u);
  EXPECT_EQ(later[2], 8u);
}

TEST(LruCacheStoreTest, SameTraceGivesSameHits) {
  std::vector<uint64_t> runs[2];
  for (auto& hits : runs) {
    auto base = std::make_shared<MemoryStore>();
    LruCacheStore cache(base, kCacheObjects * kLoopObjectBytes);
    Rng rng(kLoopSeed);
    hits = HitsPerPass(
        cache,
        ShuffledPasses(PutLoopObjects(*base, "loop/", kLoopObjects), 10, rng));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// PrefixStore namespacing
// ---------------------------------------------------------------------------

TEST(PrefixStoreTest, NamespacesKeys) {
  auto base = std::make_shared<MemoryStore>();
  PrefixStore ns(base, "datasets/mnist");
  ASSERT_TRUE(ns.Put("meta.json", ByteView(std::string_view("{}"))).ok());
  EXPECT_TRUE(*base->Exists("datasets/mnist/meta.json"));
  auto keys = ns.ListPrefix("");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], "meta.json");
}

TEST(PrefixStoreTest, SiblingsInvisible) {
  auto base = std::make_shared<MemoryStore>();
  PrefixStore a(base, "a");
  PrefixStore b(base, "b");
  ASSERT_TRUE(a.Put("k", ByteView(std::string_view("va"))).ok());
  EXPECT_TRUE(b.Get("k").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectionStoreTest, FailsEveryNth) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  FaultInjectionStore faulty(base, 3);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!faulty.Get("k").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
}

// ---------------------------------------------------------------------------
// PosixStore atomic writes and delete errors (DESIGN.md §9)
// ---------------------------------------------------------------------------

TEST(PosixStoreTest, AtomicWritesLeaveNoTempResidue) {
  auto store = MakePosix();
  ByteBuffer value = BufferFromString("durable manifest bytes");
  ASSERT_TRUE(store->Put("a/b/plain", ByteView(value)).ok());
  ASSERT_TRUE(store->PutDurable("a/b/durable", ByteView(value)).ok());
  // Overwrites go through the same temp+rename path.
  ASSERT_TRUE(store->PutDurable("a/b/durable", ByteView(value)).ok());
  auto keys = store->ListPrefix("");
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(keys->size(), 2u);
  for (const auto& k : *keys) {
    EXPECT_EQ(k.find(".dltmp."), std::string::npos) << k;
  }
  EXPECT_EQ(*store->Get("a/b/durable"), value);
}

TEST(PosixStoreTest, AdvertisesAtomicDurablePuts) {
  // VersionControl keys its journaled-commit guarantees off this bit: the
  // posix path is rename-atomic, the plain memory store is not.
  EXPECT_TRUE(MakePosix()->atomic_durable_puts());
  EXPECT_FALSE(std::make_shared<MemoryStore>()->atomic_durable_puts());
  // Decorators forward the capability of whatever they wrap
  // (DecoratorForwardingTest checks every one).
  EXPECT_TRUE(std::make_shared<PrefixStore>(MakePosix(), "ns")
                  ->atomic_durable_puts());
}

TEST(PosixStoreTest, DeleteMissingIsIdempotentButRealErrorsSurface) {
  auto store = MakePosix();
  // Deleting what is not there is success (idempotent cleanup paths).
  EXPECT_TRUE(store->Delete("never/existed").ok());
  // Deleting a non-empty directory is a real failure and must say why —
  // this used to be swallowed as success.
  ASSERT_TRUE(store->Put("dir/child", ByteView(std::string_view("v"))).ok());
  Status s = store->Delete("dir");
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_NE(s.message().find("dir"), std::string::npos) << s;
  // The child is untouched.
  EXPECT_TRUE(*store->Exists("dir/child"));
}

// ---------------------------------------------------------------------------
// Chaining: LRU in front of prefix in front of posix (paper §3.6 chain)
// ---------------------------------------------------------------------------

TEST(ChainingTest, FullChainRoundTrip) {
  auto posix = MakePosix();
  auto ns = std::make_shared<PrefixStore>(posix, "org/project");
  auto cache = std::make_shared<LruCacheStore>(ns, 1 << 20);
  ByteBuffer value = BufferFromString("chained payload");
  ASSERT_TRUE(cache->Put("t/chunk0", ByteView(value)).ok());
  EXPECT_EQ(*cache->Get("t/chunk0"), value);
  // The object actually lives under the prefix on the posix store.
  EXPECT_TRUE(*posix->Exists("org/project/t/chunk0"));
}

}  // namespace
}  // namespace dl::storage
