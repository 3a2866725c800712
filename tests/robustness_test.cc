// Transient-fault resilience suite (`ctest -L robustness`): RetryingStore
// backoff/jitter determinism and exhaustion, fault-injection op masks,
// posix errno classification, LRU bypass accounting, and full dataloader
// epochs surviving an unreliable store.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "core/deeplake.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "util/envelope.h"

namespace dl {
namespace {

using storage::FaultInjectionStore;
using storage::MemoryStore;
using storage::RetryingStore;
using storage::RetryPolicy;
using storage::StoragePtr;
using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

/// RetryingStore with a recording sleep so tests run instantly and can
/// assert the exact backoff sequence.
std::shared_ptr<RetryingStore> MakeRecordingRetry(
    StoragePtr base, RetryPolicy policy, std::vector<int64_t>* sleeps) {
  return std::make_shared<RetryingStore>(
      std::move(base), policy,
      [sleeps](int64_t us) { sleeps->push_back(us); });
}

RetryPolicy FastPolicy(int max_attempts = 4) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.initial_backoff_us = 100;
  p.max_backoff_us = 800;
  p.multiplier = 2.0;
  p.jitter = 0.25;
  p.seed = 7;
  return p;
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

TEST(StatusRetryabilityTest, ClassifiesTransientVsPermanent) {
  EXPECT_TRUE(Status::Transient("5xx").IsRetryable());
  EXPECT_TRUE(Status::Transient("5xx").IsTransient());
  EXPECT_TRUE(Status::IOError("reset").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("throttled").IsRetryable());
  EXPECT_FALSE(Status::NotFound("gone").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("bad").IsRetryable());
  EXPECT_FALSE(Status::Corruption("crc").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_EQ(Status::Transient("x").ToString(), "Transient: x");
}

// ---------------------------------------------------------------------------
// RetryingStore
// ---------------------------------------------------------------------------

TEST(RetryingStoreTest, RecoversPeriodicFaults) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  auto faulty = std::make_shared<FaultInjectionStore>(base, 3);
  std::vector<int64_t> sleeps;
  auto retry = MakeRecordingRetry(faulty, FastPolicy(), &sleeps);
  for (int i = 0; i < 30; ++i) {
    auto got = retry->Get("k");
    ASSERT_TRUE(got.ok()) << got.status();
  }
  EXPECT_GT(retry->retries_attempted(), 0u);
  EXPECT_EQ(retry->retries_exhausted(), 0u);
  EXPECT_EQ(sleeps.size(), retry->retries_attempted());
}

TEST(RetryingStoreTest, BackoffSequenceIsDeterministicAndJittered) {
  // Two identically-configured stores over an always-failing base must
  // sleep the exact same sequence (seeded jitter), and every sleep must lie
  // inside backoff * [1-jitter, 1+jitter] with the exponential cap.
  RetryPolicy p = FastPolicy(/*max_attempts=*/5);
  auto run = [&] {
    auto faulty = std::make_shared<FaultInjectionStore>(
        std::make_shared<MemoryStore>(), 1);
    std::vector<int64_t> sleeps;
    auto retry = MakeRecordingRetry(faulty, p, &sleeps);
    EXPECT_FALSE(retry->Get("k").ok());
    return sleeps;
  };
  std::vector<int64_t> a = run();
  std::vector<int64_t> b = run();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);  // max_attempts - 1 retries
  std::vector<int64_t> base_backoffs = {100, 200, 400, 800};  // capped at 800
  for (size_t i = 0; i < a.size(); ++i) {
    double lo = base_backoffs[i] * (1.0 - p.jitter);
    double hi = base_backoffs[i] * (1.0 + p.jitter);
    EXPECT_GE(a[i], static_cast<int64_t>(lo)) << "retry " << i;
    EXPECT_LE(a[i], static_cast<int64_t>(hi) + 1) << "retry " << i;
  }
  // Jitter actually moves the values off the deterministic base schedule.
  EXPECT_NE(a, base_backoffs);
}

TEST(RetryingStoreTest, ExhaustionSurfacesOriginalError) {
  auto faulty = std::make_shared<FaultInjectionStore>(
      std::make_shared<MemoryStore>(), 1);  // every read fails
  std::vector<int64_t> sleeps;
  auto retry = MakeRecordingRetry(faulty, FastPolicy(3), &sleeps);
  auto got = retry->Get("k");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError());
  EXPECT_NE(got.status().message().find("injected fault"), std::string::npos);
  EXPECT_EQ(retry->retries_attempted(), 2u);
  EXPECT_EQ(retry->retries_exhausted(), 1u);
}

TEST(RetryingStoreTest, PermanentErrorsAreNotRetried) {
  auto base = std::make_shared<MemoryStore>();
  std::vector<int64_t> sleeps;
  auto retry = MakeRecordingRetry(base, FastPolicy(), &sleeps);
  EXPECT_TRUE(retry->Get("missing").status().IsNotFound());
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(retry->retries_attempted(), 0u);
  EXPECT_EQ(retry->retries_exhausted(), 0u);
}

TEST(RetryingStoreTest, RetriesWritesAndMetadataOps) {
  auto base = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultInjectionStore>(base, 2,
                                                      storage::kFaultAllOps);
  std::vector<int64_t> sleeps;
  auto retry = MakeRecordingRetry(faulty, FastPolicy(), &sleeps);
  for (int i = 0; i < 6; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(retry->Put(key, ByteView(std::string_view("v"))).ok());
    ASSERT_TRUE(retry->Exists(key).ok());
    ASSERT_TRUE(retry->SizeOf(key).ok());
  }
  ASSERT_TRUE(retry->ListPrefix("").ok());
  ASSERT_TRUE(retry->Delete("k0").ok());
  EXPECT_GT(retry->retries_attempted(), 0u);
  EXPECT_EQ(retry->retries_exhausted(), 0u);
}

// ---------------------------------------------------------------------------
// FaultInjectionStore op mask
// ---------------------------------------------------------------------------

TEST(FaultInjectionStoreTest, OpMaskLimitsInjection) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  FaultInjectionStore faulty(base, 2, storage::kFaultGetRange);
  // Unmasked ops never fail and never advance the fault counter.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(faulty.Get("k").ok());
    EXPECT_TRUE(faulty.Exists("k").ok());
    EXPECT_TRUE(faulty.Put("w", ByteView(std::string_view("x"))).ok());
  }
  // Masked op fails on exactly every 2nd call.
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!faulty.GetRange("k", 0, 1).ok()) ++failures;
  }
  EXPECT_EQ(failures, 5);
}

TEST(FaultInjectionStoreTest, DefaultMaskCoversReadsAndPut) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  FaultInjectionStore faulty(base, 1);  // every covered op fails
  EXPECT_FALSE(faulty.Get("k").ok());
  EXPECT_FALSE(faulty.GetRange("k", 0, 1).ok());
  EXPECT_FALSE(faulty.Put("k", ByteView(std::string_view("v"))).ok());
  // Metadata ops and Delete stay clean under the default mask.
  EXPECT_TRUE(faulty.Exists("k").ok());
  EXPECT_TRUE(faulty.SizeOf("k").ok());
  EXPECT_TRUE(faulty.ListPrefix("").ok());
  EXPECT_TRUE(faulty.Delete("k").ok());
}

// ---------------------------------------------------------------------------
// PosixStore errno classification
// ---------------------------------------------------------------------------

TEST(PosixErrnoTest, MissingFileIsNotFoundButNonEnoentIsIOError) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("dl_robustness_posix_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  storage::PosixStore store(dir);
  // ENOENT → NotFound (a permanent, non-retryable error).
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_FALSE(store.Get("missing").status().IsRetryable());
  EXPECT_TRUE(store.GetRange("missing", 0, 1).status().IsNotFound());
  EXPECT_TRUE(store.SizeOf("missing").status().IsNotFound());
  // fopen on a directory fails with EISDIR — an environment problem, not a
  // missing object: must map to IOError (retryable), never NotFound.
  ASSERT_TRUE(store.Put("sub/obj", ByteView(std::string_view("v"))).ok());
  EXPECT_TRUE(store.Get("sub").status().IsIOError());
  EXPECT_TRUE(store.Get("sub").status().IsRetryable());
  EXPECT_TRUE(store.GetRange("sub", 0, 1).status().IsIOError());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// LruCacheStore range-bypass accounting
// ---------------------------------------------------------------------------

TEST(LruCacheStoreTest, RangeBypassIsNotAMiss) {
  auto base = std::make_shared<MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("0123456789"))).ok());
  storage::LruCacheStore cache(base, 1 << 20);
  // Uncached range read: served by the base by design — a bypass, not a
  // miss.
  ASSERT_TRUE(cache.GetRange("k", 2, 3).ok());
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.range_bypasses(), 1u);
  // A full Get (miss) populates the cache; later ranges are hits.
  ASSERT_TRUE(cache.Get("k").ok());
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.GetRange("k", 2, 3).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.range_bypasses(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------------------------------------
// LruCacheStore corrupt-entry eviction (DESIGN.md §9)
// ---------------------------------------------------------------------------

// Regression: a corrupt object cached by an LRU layer used to be served
// forever — every read returned the same bad bytes even after the base
// store healed. GetVerified must evict the entry and retry the base once.
TEST(LruCacheStoreTest, CorruptCachedEntryIsEvictedAndHealed) {
  auto base = std::make_shared<MemoryStore>();
  ByteBuffer good = EnvelopeWrap(ByteView(std::string_view("meta payload")));
  ByteBuffer bad = good;
  bad[bad.size() / 2] ^= 0x40;  // bit flip inside the payload
  // The cache picks up the corrupt copy (a decayed disk block, a torn
  // in-place overwrite...), then the base is repaired underneath it.
  ASSERT_TRUE(base->Put("k", ByteView(bad)).ok());
  auto cache = std::make_shared<storage::LruCacheStore>(base, 1 << 20);
  ASSERT_TRUE(cache->Get("k").ok());  // caches the corrupt bytes
  ASSERT_TRUE(base->Put("k", ByteView(good)).ok());  // heal the base only

  // Plain Get still serves the stale corrupt entry — the bug scenario.
  auto stale = cache->Get("k");
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(EnvelopeUnwrap(*stale).status().IsCorruption());

  // The verified read detects the CRC mismatch, evicts, and re-reads.
  auto healed = storage::GetVerified(*cache, "k");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(ByteView(*healed).ToStringView(), "meta payload");

  // The retry repopulated the cache: the next read is a clean hit.
  uint64_t hits_before = cache->hits();
  auto again = cache->Get("k");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(EnvelopeUnwrap(*again).ok());
  EXPECT_GT(cache->hits(), hits_before);
}

TEST(LruCacheStoreTest, PersistentCorruptionStaysCorruption) {
  // If the base itself is corrupt, the one-shot retry must surface
  // Corruption (a permanent error), not loop or mask it.
  auto base = std::make_shared<MemoryStore>();
  ByteBuffer bad = EnvelopeWrap(ByteView(std::string_view("payload")));
  bad[6] ^= 0x01;
  ASSERT_TRUE(base->Put("k", ByteView(bad)).ok());
  auto cache = std::make_shared<storage::LruCacheStore>(base, 1 << 20);
  auto got = storage::GetVerified(*cache, "k");
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
  EXPECT_FALSE(got.status().IsRetryable());
}

// ---------------------------------------------------------------------------
// Dataloader epochs over an unreliable store
// ---------------------------------------------------------------------------

/// Multi-chunk dataset with labels[i] == i, built on a reliable store.
std::shared_ptr<Dataset> BuildDataset(int n, StoragePtr store) {
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  img.max_chunk_bytes = 4 * 1024;  // many small chunks → many fetches
  EXPECT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{8, 8, 3},
                           ByteBuffer(8 * 8 * 3, static_cast<uint8_t>(i)));
    row["labels"] = Sample::Scalar(i, DType::kInt32);
    EXPECT_TRUE(ds->Append(row).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

/// Opens the dataset through the fault-injection store while it is disarmed
/// (huge period), then arms the tight fault period for the epoch under
/// test. Open issues more than `fail_every` consecutive reads, so with the
/// injector armed a bare open can never succeed — the interesting behavior
/// is the epoch stream, not the open.
Result<std::shared_ptr<Dataset>> OpenThenArm(
    const std::shared_ptr<FaultInjectionStore>& faulty, uint64_t fail_every) {
  auto ds = Dataset::Open(faulty);
  faulty->set_fail_every(fail_every);
  return ds;
}

/// Drains the loader; returns labels or the first error.
Result<std::vector<int>> Drain(stream::Dataloader& loader) {
  std::vector<int> labels;
  stream::Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (const auto& s : batch.columns.at("labels")) {
      labels.push_back(static_cast<int>(s.AsInt()));
    }
  }
  return labels;
}

void ExpectExactlyOnce(const std::vector<int>& labels, int n) {
  ASSERT_EQ(labels.size(), static_cast<size_t>(n));
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(n));  // no duplicates
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), n - 1);  // no gaps
}

class EpochUnderFaultsTest : public ::testing::TestWithParam<bool> {};

TEST_P(EpochUnderFaultsTest, RetryingStoreDeliversEveryRowExactlyOnce) {
  const bool shuffle = GetParam();
  constexpr int kRows = 150;
  auto mem = std::make_shared<MemoryStore>();
  BuildDataset(kRows, mem);
  // Chain: fault(7) → retry → dataset. The retry layer also absorbs the
  // faults Dataset::Open's metadata reads would otherwise hit.
  auto faulty = std::make_shared<FaultInjectionStore>(mem, 7);
  std::vector<int64_t> sleeps;
  auto retry = MakeRecordingRetry(faulty, FastPolicy(6), &sleeps);
  auto ds = Dataset::Open(retry);
  ASSERT_TRUE(ds.ok()) << ds.status();
  stream::DataloaderOptions opts;
  opts.batch_size = 16;
  opts.num_workers = 4;
  opts.shuffle = shuffle;
  opts.shuffle_buffer_rows = 64;
  stream::Dataloader loader(*ds, opts);
  auto labels = Drain(loader);
  ASSERT_TRUE(labels.ok()) << labels.status();
  ExpectExactlyOnce(*labels, kRows);
  EXPECT_GT(retry->retries_attempted(), 0u);
  EXPECT_EQ(retry->retries_exhausted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ShuffleOnOff, EpochUnderFaultsTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "shuffled" : "sequential";
                         });

TEST(EpochFailFastTest, WithoutRetryLayerStillFailsFast) {
  constexpr int kRows = 150;
  auto mem = std::make_shared<MemoryStore>();
  BuildDataset(kRows, mem);
  auto faulty = std::make_shared<FaultInjectionStore>(mem, 1 << 30);
  auto ds = OpenThenArm(faulty, 7);
  ASSERT_TRUE(ds.ok()) << ds.status();
  stream::DataloaderOptions opts;
  opts.batch_size = 16;
  stream::Dataloader loader(*ds, opts);
  auto labels = Drain(loader);
  ASSERT_FALSE(labels.ok());
  EXPECT_TRUE(labels.status().IsIOError());
}

// ---------------------------------------------------------------------------
// DeepLake::Open wiring
// ---------------------------------------------------------------------------

TEST(DeepLakeRetryTest, OpenWithRetryAbsorbsFaultsEndToEnd) {
  auto mem = std::make_shared<MemoryStore>();
  {
    auto lake = *DeepLake::Open(mem);
    tsf::TensorOptions lbl;
    lbl.htype = "class_label";
    ASSERT_TRUE(lake->CreateTensor("labels", lbl).ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          lake->Append({{"labels", Sample::Scalar(i, DType::kInt32)}}).ok());
    }
    ASSERT_TRUE(lake->Flush().ok());
    ASSERT_TRUE(lake->Commit("seed data").ok());
  }
  auto faulty = std::make_shared<FaultInjectionStore>(mem, 7);
  DeepLake::OpenOptions oopts;
  oopts.retry_transient_errors = true;
  oopts.retry_policy.initial_backoff_us = 0;  // instant in tests
  oopts.retry_policy.max_backoff_us = 0;
  oopts.retry_policy.max_attempts = 6;
  auto lake = DeepLake::Open(faulty, oopts);
  ASSERT_TRUE(lake.ok()) << lake.status();
  EXPECT_EQ((*lake)->NumRows(), 40u);
  stream::DataloaderOptions opts;
  opts.batch_size = 8;
  auto loader = (*lake)->Dataloader(opts);
  auto labels = Drain(*loader);
  ASSERT_TRUE(labels.ok()) << labels.status();
  ExpectExactlyOnce(*labels, 40);
}

}  // namespace
}  // namespace dl
