// Concurrent crash matrix (`ctest -L mvcc -L crash`, DESIGN.md §12): run
// two interleaved optimistic committers updating disjoint row groups,
// enumerate every storage write the schedule performs, and kill the store
// at each one — once with CrashScope::kProcess (everyone dies, the image
// mimics a machine kill) and once with CrashScope::kWriter (one writer
// dies mid-publish, the survivor keeps going). Every cell must recover to
// exactly-old-or-new PER WRITER with zero Corruption surfacing, both via
// plain reopen (crash recovery) and via dlfsck scan/repair, and the
// abandoned staging debris of killed writers must be garbage-collected.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "version/fsck.h"
#include "version/layout.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace dl {
namespace {

using storage::CrashMode;
using storage::CrashModeName;
using storage::CrashPointStore;
using storage::CrashScope;
using storage::CrashScopeName;
using storage::MemoryStore;
using storage::StoragePtr;
using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using version::CommitWithTxnRetries;
using version::FsckIssueKind;
using version::FsckRepair;
using version::FsckScan;
using version::VersionControl;

constexpr int kWriters = 2;
// 128 int64 rows = 1KB, the smallest legal max_chunk_bytes. Each writer
// owns TWO chunks and its transaction updates one row in each — so the
// two committers never conflict (chunk-granular footprints are disjoint)
// and per-writer atomicity is a real cross-chunk property, not just the
// atomicity of a single chunk write.
constexpr uint64_t kChunkRows = 128;
constexpr uint64_t kWriterRows = 2 * kChunkRows;
// The two rows writer w updates (first row of each of its chunks).
uint64_t RowA(int w) { return static_cast<uint64_t>(w) * kWriterRows; }
uint64_t RowB(int w) { return RowA(w) + kChunkRows; }
// Writer w publishes one transaction setting both its rows to this.
int64_t TargetOf(int w) { return 1000 * (w + 1); }
int64_t SeedOf(uint64_t row) { return static_cast<int64_t>(row); }

StoragePtr CloneImage(storage::StorageProvider& src) {
  auto dst = std::make_shared<MemoryStore>();
  auto keys = src.ListPrefix("");
  EXPECT_TRUE(keys.ok()) << keys.status();
  for (const auto& k : *keys) {
    auto v = src.Get(k);
    EXPECT_TRUE(v.ok()) << v.status();
    EXPECT_TRUE(dst->Put(k, ByteView(*v)).ok());
  }
  return dst;
}

/// Seed image: kWriters × kWriterRows int64 rows, sealed.
StoragePtr BuildSeed() {
  auto base = std::make_shared<MemoryStore>();
  auto vc = VersionControl::OpenOrInit(base).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions vals;
  vals.dtype = "int64";
  static_assert(kChunkRows * sizeof(int64_t) >= 1024);
  vals.max_chunk_bytes = kChunkRows * sizeof(int64_t);
  EXPECT_TRUE(ds->CreateTensor("vals", vals).ok());
  for (uint64_t i = 0; i < kWriters * kWriterRows; ++i) {
    EXPECT_TRUE(
        ds->Append({{"vals", Sample::Scalar(SeedOf(i), DType::kInt64)}}).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  EXPECT_TRUE(vc->Commit("seed").ok());
  return base;
}

/// The workload the matrix enumerates: kWriters threads each publish one
/// transaction updating their disjoint row group. Crashes surface as
/// per-thread errors; nothing here asserts success — the matrix only
/// cares what the surviving image recovers to.
void RunWorkload(StoragePtr store) {
  auto vc_or = VersionControl::OpenOrInit(store);
  if (!vc_or.ok()) return;  // crash fired during open/recovery
  auto vc = *vc_or;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([vc, w] {
      storage::RetryPolicy ropts = version::kTxnRetryPolicy;
      ropts.max_attempts = 8;
      ropts.seed = 7 + static_cast<uint64_t>(w);
      (void)CommitWithTxnRetries(
          vc, {.owner = "w" + std::to_string(w)},
          [w](tsf::Dataset& ds) -> Status {
            DL_ASSIGN_OR_RETURN(auto* t, ds.GetTensor("vals"));
            DL_RETURN_IF_ERROR(t->Update(
                RowA(w), Sample::Scalar(TargetOf(w), DType::kInt64)));
            DL_RETURN_IF_ERROR(t->Update(
                RowB(w), Sample::Scalar(TargetOf(w), DType::kInt64)));
            return Status::OK();
          },
          "writer " + std::to_string(w), ropts);
    });
  }
  for (auto& t : threads) t.join();
}

/// Reopens a crashed image and asserts the per-writer atomicity contract:
/// the tree opens, each writer's two rows (in different chunks) read back
/// intact and are BOTH at seed or BOTH at target — never a cross-chunk
/// mix.
void VerifyRecovered(StoragePtr base) {
  auto vc = VersionControl::OpenOrInit(base);
  ASSERT_TRUE(vc.ok()) << vc.status();
  auto ds = Dataset::Open((*vc)->working_store());
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ((*ds)->NumRows(), kWriters * kWriterRows);
  for (int w = 0; w < kWriters; ++w) {
    int old_rows = 0, new_rows = 0;
    for (uint64_t row : {RowA(w), RowB(w)}) {
      auto cells = (*ds)->ReadRow(row);
      ASSERT_TRUE(cells.ok()) << "row " << row << ": " << cells.status();
      int64_t v = cells->at("vals").AsInt();
      if (v == SeedOf(row)) {
        ++old_rows;
      } else if (v == TargetOf(w)) {
        ++new_rows;
      } else {
        ADD_FAILURE() << "row " << row << " holds foreign value " << v;
      }
    }
    EXPECT_TRUE(old_rows == 0 || new_rows == 0)
        << "writer " << w << " recovered to a torn cross-chunk mix: "
        << old_rows << " old / " << new_rows << " new rows";
  }
  // No staging debris survives recovery: every version dir left either
  // belongs to a known commit or was garbage-collected.
  auto keys = base->ListPrefix(version::kVersionsPrefix);
  ASSERT_TRUE(keys.ok()) << keys.status();
  for (const auto& k : *keys) {
    EXPECT_NE(k.substr(k.rfind('/') + 1), "txn.json")
        << "stale txn marker survived recovery: " << k;
  }
}

/// Runs the concurrent write matrix for one (mode, scope) pair.
void RunConcurrentMatrix(CrashMode mode, CrashScope scope) {
  StoragePtr seed = BuildSeed();

  // Counting pass: crash_at_write == 0 never fires. The schedule is
  // nondeterministic, so this count sizes the matrix rather than naming
  // specific writes; cells past a shorter schedule simply don't crash.
  auto counter =
      std::make_shared<CrashPointStore>(CloneImage(*seed), 0, mode, scope);
  RunWorkload(counter);
  const uint64_t total_writes = counter->writes_seen();
  // Two full publishes (keyset + diff + marker delete + record + info) on
  // top of chunk writes: fewer writes means the workload lost its writers.
  ASSERT_GE(total_writes, 12u);

  uint64_t stale_txns_seen = 0;
  for (uint64_t w = 1; w <= total_writes; ++w) {
    SCOPED_TRACE(std::string("mode=") + CrashModeName(mode) +
                 " scope=" + CrashScopeName(scope) +
                 " crash_at_write=" + std::to_string(w));

    StoragePtr image = CloneImage(*seed);
    auto crash = std::make_shared<CrashPointStore>(image, w, mode, scope);
    RunWorkload(crash);
    // A shorter schedule than the counting pass may finish clean; the
    // cell then just verifies the fully-published state.

    // Path 1 — plain reopen: crash recovery restores old-or-new per
    // writer and garbage-collects abandoned staging directories.
    StoragePtr recovered = CloneImage(*image);
    VerifyRecovered(recovered);

    // Path 2 — dlfsck: scan never errors, repair converges to a clean
    // tree that still satisfies the contract.
    auto pre = FsckScan(image);
    ASSERT_TRUE(pre.ok()) << pre.status();
    stale_txns_seen += pre->CountOf(FsckIssueKind::kStaleTxn);
    auto repaired = FsckRepair(image);
    ASSERT_TRUE(repaired.ok()) << repaired.status();
    std::string issues;
    for (const auto& i : repaired->issues) {
      issues += std::string(version::FsckIssueKindName(i.kind)) + " " +
                i.key + ": " + i.detail + "\n";
    }
    EXPECT_TRUE(repaired->clean()) << "post-repair issues:\n" << issues;
    VerifyRecovered(image);
  }

  if (scope == CrashScope::kWriter) {
    // Killing one writer mid-transaction while the other lives must leave
    // abandoned staging debris in at least one cell — the class dlfsck
    // learned to classify. (kProcess cells can also produce it; only the
    // writer scope guarantees a survivor published around the corpse.)
    EXPECT_GE(stale_txns_seen, 1u);
  }
}

TEST(MvccCrashTest, ProcessScopeMissing) {
  RunConcurrentMatrix(CrashMode::kMissing, CrashScope::kProcess);
}

TEST(MvccCrashTest, ProcessScopeTorn) {
  RunConcurrentMatrix(CrashMode::kTorn, CrashScope::kProcess);
}

TEST(MvccCrashTest, WriterScopeMissing) {
  RunConcurrentMatrix(CrashMode::kMissing, CrashScope::kWriter);
}

TEST(MvccCrashTest, WriterScopeTorn) {
  RunConcurrentMatrix(CrashMode::kTorn, CrashScope::kWriter);
}

TEST(MvccCrashTest, WriterScopeKillsOnlyTheCrossingThread) {
  auto base = std::make_shared<MemoryStore>();
  auto crash = std::make_shared<CrashPointStore>(base, 1, CrashMode::kMissing,
                                                 CrashScope::kWriter);
  // This thread crosses the crash point and is dead from then on.
  EXPECT_FALSE(crash->Put("k1", ByteView(std::string_view("v"))).ok());
  EXPECT_TRUE(crash->crashed());
  EXPECT_TRUE(crash->Get("k1").status().IsIOError());
  EXPECT_TRUE(crash->Put("k2", ByteView(std::string_view("v"))).IsIOError());
  // A different thread keeps full store access.
  std::thread survivor([&] {
    EXPECT_TRUE(crash->Put("k3", ByteView(std::string_view("v"))).ok());
    auto got = crash->Get("k3");
    EXPECT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(crash->Delete("k3").ok());
  });
  survivor.join();
}

TEST(MvccCrashTest, CounterPassLandsBothWriters) {
  StoragePtr seed = BuildSeed();
  auto counter = std::make_shared<CrashPointStore>(
      seed, 0, CrashMode::kMissing, CrashScope::kProcess);
  RunWorkload(counter);
  EXPECT_FALSE(counter->crashed());
  auto vc = VersionControl::OpenOrInit(seed).MoveValue();
  auto ds = Dataset::Open(vc->working_store()).MoveValue();
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t row : {RowA(w), RowB(w)}) {
      auto cells = ds->ReadRow(row);
      ASSERT_TRUE(cells.ok()) << cells.status();
      EXPECT_EQ(cells->at("vals").AsInt(), TargetOf(w));
    }
  }
}

}  // namespace
}  // namespace dl
