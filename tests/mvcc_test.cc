// MVCC suite (`ctest -L mvcc`, DESIGN.md §12): optimistic write
// transactions over the commit graph — private staging, publish-time
// conflict detection, rebase of disjoint changes, retry convergence —
// plus snapshot-isolated readers (At / QueryAt / DataloaderAt) and the
// writer×reader interleave matrix asserting readers pinned at a commit
// never observe a torn mix of concurrently published transactions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/deeplake.h"
#include "obs/metrics.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "version/layout.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace dl {
namespace {

using storage::MemoryStore;
using storage::StoragePtr;
using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using version::CommitWithTxnRetries;
using version::TxnOptions;
using version::VersionControl;
using version::WriteTxn;

Status AppendVal(Dataset& ds, int64_t v) {
  return ds.Append({{"vals", Sample::Scalar(v, DType::kInt64)}});
}

/// Seed: one sealed commit with `rows` int64 rows valued 0..rows-1.
/// Conflict detection is chunk-granular (TensorDiff::modified_ranges spans
/// whole chunks), so tests that need updates to be non-conflicting cap
/// `max_chunk_bytes` to align chunk boundaries with their row groups.
std::shared_ptr<VersionControl> SeedTree(StoragePtr base, uint64_t rows,
                                         uint64_t max_chunk_bytes = 0) {
  auto vc = VersionControl::OpenOrInit(base).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions vals;
  vals.dtype = "int64";
  if (max_chunk_bytes > 0) vals.max_chunk_bytes = max_chunk_bytes;
  EXPECT_TRUE(ds->CreateTensor("vals", vals).ok());
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(AppendVal(*ds, static_cast<int64_t>(i)).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  EXPECT_TRUE(vc->Commit("seed").ok());
  return vc;
}

Result<int64_t> ReadVal(Dataset& ds, uint64_t row) {
  DL_ASSIGN_OR_RETURN(auto r, ds.ReadRow(row));
  return r.at("vals").AsInt();
}

TEST(MvccTest, FastPathPublishLandsAndCleansMarker) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 3);
  auto sealed = vc->SealedHead();
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  auto txn = WriteTxn::Begin(vc, {.owner = "writer-a"});
  ASSERT_TRUE(txn.ok()) << txn.status();
  EXPECT_EQ((*txn)->base(), *sealed);
  // The staging directory is marked while the transaction is open.
  auto marker = base->Exists(version::TxnMarkerKey((*txn)->id()));
  ASSERT_TRUE(marker.ok());
  EXPECT_TRUE(*marker);

  auto ds = (*txn)->dataset();
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ((*ds)->NumRows(), 3u);  // reads see the base snapshot
  ASSERT_TRUE(AppendVal(**ds, 3).ok());

  auto landed = (*txn)->Publish("txn append");
  ASSERT_TRUE(landed.ok()) << landed.status();
  EXPECT_EQ(*landed, (*txn)->id());  // head unchanged → staged commit seals
  EXPECT_TRUE((*txn)->finished());

  // Marker gone, head moved, rows visible to a fresh working view.
  marker = base->Exists(version::TxnMarkerKey(*landed));
  ASSERT_TRUE(marker.ok());
  EXPECT_FALSE(*marker);
  EXPECT_EQ(*vc->SealedHead(), *landed);
  auto reread = Dataset::Open(vc->working_store());
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_EQ((*reread)->NumRows(), 4u);
  EXPECT_EQ(*ReadVal(**reread, 3), 3);
}

TEST(MvccTest, StagedWritesInvisibleUntilPublish) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 2);

  auto txn = WriteTxn::Begin(vc).MoveValue();
  ASSERT_TRUE(AppendVal(**txn->dataset(), 99).ok());

  // Concurrent readers of the working view and of the sealed head see
  // only the base state while the transaction stages.
  auto reader = Dataset::Open(vc->working_store());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->NumRows(), 2u);
  for (const auto& info : vc->Log()) {
    EXPECT_NE(info.id, txn->id()) << "staged commit leaked into the log";
  }

  ASSERT_TRUE(txn->Publish("now visible").ok());
  auto after = Dataset::Open(vc->working_store());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ((*after)->NumRows(), 3u);
}

TEST(MvccTest, AbortDropsStagingDirectory) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 2);

  std::string txn_id;
  {
    auto txn = WriteTxn::Begin(vc).MoveValue();
    txn_id = txn->id();
    ASSERT_TRUE(AppendVal(**txn->dataset(), 7).ok());
    ASSERT_TRUE((*txn->dataset())->Flush().ok());
    ASSERT_TRUE(txn->Abort().ok());
    EXPECT_TRUE(txn->finished());
    ASSERT_TRUE(txn->Abort().ok());  // idempotent
  }
  auto leftovers = base->ListPrefix(version::VersionDir(txn_id) + "/");
  ASSERT_TRUE(leftovers.ok()) << leftovers.status();
  EXPECT_TRUE(leftovers->empty());
  // The tree is untouched.
  auto ds = Dataset::Open(vc->working_store());
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ((*ds)->NumRows(), 2u);
}

TEST(MvccTest, DestructorAbortsUnpublishedTxn) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 1);
  std::string txn_id;
  {
    auto txn = WriteTxn::Begin(vc).MoveValue();
    txn_id = txn->id();
    ASSERT_TRUE(AppendVal(**txn->dataset(), 5).ok());
  }  // falls out of scope unpublished
  auto leftovers = base->ListPrefix(version::VersionDir(txn_id) + "/");
  ASSERT_TRUE(leftovers.ok()) << leftovers.status();
  EXPECT_TRUE(leftovers->empty());
}

TEST(MvccTest, ConcurrentAppendsConflictAndAreRetryable) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 2);

  auto a = WriteTxn::Begin(vc, {.owner = "a"}).MoveValue();
  auto b = WriteTxn::Begin(vc, {.owner = "b"}).MoveValue();
  ASSERT_TRUE(AppendVal(**a->dataset(), 10).ok());
  ASSERT_TRUE(AppendVal(**b->dataset(), 20).ok());

  ASSERT_TRUE(a->Publish("first append").ok());
  auto second = b->Publish("second append");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsConflict()) << second.status();
  EXPECT_TRUE(second.status().IsRetryable());
  EXPECT_FALSE(b->finished());  // loser stays open: caller aborts/retries
  ASSERT_TRUE(b->Abort().ok());

  // The winner's row landed; the loser's did not.
  auto ds = Dataset::Open(vc->working_store()).MoveValue();
  ASSERT_EQ(ds->NumRows(), 3u);
  EXPECT_EQ(*ReadVal(*ds, 2), 10);
}

TEST(MvccTest, DisjointUpdatesMergeViaRebase) {
  auto base = std::make_shared<MemoryStore>();
  // 128 int64 rows per chunk (1KB is the smallest legal max_chunk_bytes):
  // rows 0 and 255 live in different chunks, so the two updates have
  // disjoint (chunk-granular) footprints.
  auto vc = SeedTree(base, 256, /*max_chunk_bytes=*/1024);
  auto* rebased =
      obs::MetricsRegistry::Global().GetCounter("version.txn.publish_rebased");
  uint64_t rebased_before = rebased->Value();

  // Two transactions on the same base updating disjoint rows of the same
  // tensor: no footprint overlap, so the second publisher rebases and
  // both cell updates land.
  auto a = WriteTxn::Begin(vc, {.owner = "a"}).MoveValue();
  auto b = WriteTxn::Begin(vc, {.owner = "b"}).MoveValue();
  auto ta = (*a->dataset())->GetTensor("vals");
  ASSERT_TRUE(ta.ok()) << ta.status();
  ASSERT_TRUE((*ta)->Update(0, Sample::Scalar(int64_t{100}, DType::kInt64)).ok());
  auto tb = (*b->dataset())->GetTensor("vals");
  ASSERT_TRUE(tb.ok()) << tb.status();
  ASSERT_TRUE(
      (*tb)->Update(255, Sample::Scalar(int64_t{700}, DType::kInt64)).ok());

  auto la = a->Publish("update row 0");
  ASSERT_TRUE(la.ok()) << la.status();
  auto lb = b->Publish("update row 255");
  ASSERT_TRUE(lb.ok()) << lb.status();
  EXPECT_NE(*lb, b->id()) << "second publish should land a rebased commit";
  EXPECT_GT(rebased->Value(), rebased_before);

  auto ds = Dataset::Open(vc->working_store()).MoveValue();
  ASSERT_EQ(ds->NumRows(), 256u);
  EXPECT_EQ(*ReadVal(*ds, 0), 100);
  EXPECT_EQ(*ReadVal(*ds, 255), 700);
  EXPECT_EQ(*ReadVal(*ds, 130), 130);  // untouched rows survive the rebase
}

TEST(MvccTest, OverlappingUpdatesConflict) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 4);

  auto a = WriteTxn::Begin(vc).MoveValue();
  auto b = WriteTxn::Begin(vc).MoveValue();
  ASSERT_TRUE((*(*a->dataset())->GetTensor("vals"))
                  ->Update(1, Sample::Scalar(int64_t{11}, DType::kInt64))
                  .ok());
  ASSERT_TRUE((*(*b->dataset())->GetTensor("vals"))
                  ->Update(1, Sample::Scalar(int64_t{22}, DType::kInt64))
                  .ok());
  ASSERT_TRUE(a->Publish("a wins").ok());
  auto lost = b->Publish("b loses");
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status().IsConflict()) << lost.status();
  ASSERT_TRUE(b->Abort().ok());
  EXPECT_EQ(*ReadVal(*Dataset::Open(vc->working_store()).MoveValue(), 1), 11);
}

TEST(MvccTest, RetriesConvergeUnderAppendContention) {
  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 0);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 3;

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto landed = CommitWithTxnRetries(
            vc, {.owner = "w" + std::to_string(w)},
            [&](tsf::Dataset& ds) { return AppendVal(ds, w * 100 + i); },
            "append w" + std::to_string(w));
        if (!landed.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto ds = Dataset::Open(vc->working_store()).MoveValue();
  EXPECT_EQ(ds->NumRows(), static_cast<uint64_t>(kWriters * kPerWriter));
  // Every writer's values all landed exactly once.
  std::set<int64_t> seen;
  for (uint64_t i = 0; i < ds->NumRows(); ++i) seen.insert(*ReadVal(*ds, i));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kWriters * kPerWriter));
}

TEST(MvccTest, TimeTravelAtAndQueryAtPinSnapshots) {
  auto lake = *DeepLake::Open(std::make_shared<MemoryStore>());
  TensorOptions vals;
  vals.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("labels", vals).ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(lake->Append({{"labels", Sample::Scalar(i, DType::kInt64)}}).ok());
  }
  auto c1 = lake->Commit("five rows");
  ASSERT_TRUE(c1.ok()) << c1.status();
  for (int64_t i = 5; i < 10; ++i) {
    ASSERT_TRUE(lake->Append({{"labels", Sample::Scalar(i, DType::kInt64)}}).ok());
  }
  auto c2 = lake->Commit("ten rows");
  ASSERT_TRUE(c2.ok()) << c2.status();

  EXPECT_EQ(*lake->HeadCommit(), *c2);
  auto snap = lake->At(*c1);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ((*snap)->NumRows(), 5u);

  auto view = lake->QueryAt(*c1, "SELECT * FROM ds WHERE labels % 2 = 0");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->pinned_commit(), *c1);
  EXPECT_EQ(view->size(), 3u);  // 0, 2, 4 — rows 6/8 are beyond the pin

  // The pinned snapshot is immune to later commits.
  for (int64_t i = 10; i < 12; ++i) {
    ASSERT_TRUE(lake->Append({{"labels", Sample::Scalar(i, DType::kInt64)}}).ok());
  }
  ASSERT_TRUE(lake->Commit("twelve rows").ok());
  EXPECT_EQ((*snap)->NumRows(), 5u);

  auto bad = lake->At("no-such-commit");
  EXPECT_FALSE(bad.ok());
}

TEST(MvccTest, DataloaderAtStreamsPinnedSnapshotDuringIngest) {
  auto lake = *DeepLake::Open(std::make_shared<MemoryStore>());
  TensorOptions vals;
  vals.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("labels", vals).ok());
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(lake->Append({{"labels", Sample::Scalar(i, DType::kInt64)}}).ok());
  }
  auto pinned = lake->Commit("epoch snapshot");
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  // An appender streams new rows through transactions while dataloaders
  // consume the pinned epoch — continuous ingest (ISSUE: appenders stream
  // while dataloaders consume).
  std::atomic<bool> stop{false};
  std::thread appender([&] {
    int64_t v = 1000;
    while (!stop.load()) {
      auto landed = lake->Transact(
          [&](tsf::Dataset& ds) {
            return ds.Append({{"labels", Sample::Scalar(v, DType::kInt64)}});
          },
          "ingest");
      EXPECT_TRUE(landed.ok()) << landed.status();
      ++v;
    }
  });

  for (int epoch = 0; epoch < 3; ++epoch) {
    stream::DataloaderOptions opts;
    opts.batch_size = 8;
    opts.num_workers = 2;
    auto loader = lake->DataloaderAt(*pinned, opts);
    ASSERT_TRUE(loader.ok()) << loader.status();
    uint64_t rows = 0;
    stream::Batch batch;
    while (true) {
      auto more = (*loader)->Next(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      rows += batch.size;
      for (const auto& s : batch.columns.at("labels")) {
        EXPECT_LT(s.AsInt(), 32) << "pinned epoch leaked an ingested row";
      }
    }
    EXPECT_EQ(rows, 32u) << "pinned epoch size drifted during ingest";
  }
  stop.store(true);
  appender.join();

  // The ingested rows did land on the head.
  auto head = lake->At(*lake->HeadCommit());
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_GT((*head)->NumRows(), 32u);
}

// Writer×reader interleave matrix: W writer threads each own a disjoint
// row group and publish transactions setting the whole group to one
// value; R reader threads pin the sealed head and assert every group is
// *uniform* in the snapshot. A torn snapshot (group mixing two values)
// means a reader observed a half-published transaction.
TEST(MvccTest, WriterReaderInterleaveMatrix) {
  constexpr int kWriterCounts[] = {1, 2, 3};
  constexpr int kReaderCounts[] = {1, 2};
  // 128 int64 rows = 1KB, the smallest legal max_chunk_bytes: each group
  // is exactly one chunk, so disjoint groups give disjoint footprints.
  constexpr uint64_t kGroupRows = 128;
  constexpr int kItersPerWriter = 5;

  for (int writers : kWriterCounts) {
    for (int readers : kReaderCounts) {
      SCOPED_TRACE("writers=" + std::to_string(writers) +
                   " readers=" + std::to_string(readers));
      auto base = std::make_shared<MemoryStore>();
      // One chunk per writer group: disjoint groups → disjoint footprints.
      auto vc = SeedTree(base, static_cast<uint64_t>(writers) * kGroupRows,
                         /*max_chunk_bytes=*/kGroupRows * sizeof(int64_t));
      static_assert(kGroupRows * sizeof(int64_t) >= 1024);

      // The seed values are the row indices — not uniform. Publish one
      // baseline transaction per writer so every group is uniform before
      // the race and readers can assert strict uniformity throughout.
      for (int w = 0; w < writers; ++w) {
        auto baseline = CommitWithTxnRetries(
            vc, {.owner = "baseline-w" + std::to_string(w)},
            [&, w](tsf::Dataset& ds) -> Status {
              DL_ASSIGN_OR_RETURN(auto* t, ds.GetTensor("vals"));
              std::vector<Sample> group;
              for (uint64_t r = 0; r < kGroupRows; ++r) {
                group.push_back(
                    Sample::Scalar(int64_t{w * 1000}, DType::kInt64));
              }
              return t->UpdateContiguous(
                  static_cast<uint64_t>(w) * kGroupRows, group);
            },
            "baseline w" + std::to_string(w));
        ASSERT_TRUE(baseline.ok()) << baseline.status();
      }

      std::atomic<bool> stop{false};
      std::atomic<int> writer_failures{0};
      std::atomic<int> torn_snapshots{0};
      std::vector<std::thread> threads;

      for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
          storage::RetryPolicy ropts = version::kTxnRetryPolicy;
          ropts.max_attempts = 64;
          ropts.seed = 42 + static_cast<uint64_t>(w);
          for (int i = 1; i <= kItersPerWriter; ++i) {
            auto landed = CommitWithTxnRetries(
                vc, {.owner = "w" + std::to_string(w)},
                [&](tsf::Dataset& ds) -> Status {
                  DL_ASSIGN_OR_RETURN(auto* t, ds.GetTensor("vals"));
                  std::vector<Sample> group;
                  for (uint64_t r = 0; r < kGroupRows; ++r) {
                    group.push_back(
                        Sample::Scalar(int64_t{w * 1000 + i}, DType::kInt64));
                  }
                  return t->UpdateContiguous(
                      static_cast<uint64_t>(w) * kGroupRows, group);
                },
                "w" + std::to_string(w) + " iter " + std::to_string(i), ropts);
            if (!landed.ok()) {
              ADD_FAILURE() << "writer " << w << ": " << landed.status();
              writer_failures.fetch_add(1);
              return;
            }
          }
        });
      }
      for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&] {
          while (!stop.load()) {
            auto head = vc->SealedHead();
            if (!head.ok()) continue;
            auto store = vc->StoreAt(*head);
            if (!store.ok()) continue;
            auto ds = Dataset::Open(*store);
            if (!ds.ok()) continue;  // never an error surfaced below
            for (int w = 0; w < writers; ++w) {
              auto first =
                  ReadVal(**ds, static_cast<uint64_t>(w) * kGroupRows);
              ASSERT_TRUE(first.ok()) << first.status();
              for (uint64_t r2 = 1; r2 < kGroupRows; ++r2) {
                auto v = ReadVal(
                    **ds, static_cast<uint64_t>(w) * kGroupRows + r2);
                ASSERT_TRUE(v.ok()) << v.status();
                if (*v != *first) torn_snapshots.fetch_add(1);
              }
            }
          }
        });
      }
      // Writers finish first; then release the readers.
      for (int w = 0; w < writers; ++w) threads[w].join();
      stop.store(true);
      for (size_t t = writers; t < threads.size(); ++t) threads[t].join();

      EXPECT_EQ(writer_failures.load(), 0);
      EXPECT_EQ(torn_snapshots.load(), 0)
          << "a pinned reader observed a half-published transaction";
      // Final state: every group uniformly at its writer's last value.
      auto ds = Dataset::Open(vc->working_store()).MoveValue();
      for (int w = 0; w < writers; ++w) {
        for (uint64_t r2 = 0; r2 < kGroupRows; ++r2) {
          EXPECT_EQ(*ReadVal(*ds, static_cast<uint64_t>(w) * kGroupRows + r2),
                    w * 1000 + kItersPerWriter);
        }
      }
    }
  }
}

TEST(MvccTest, TransactRunsBodyAgainstFreshBaseEachAttempt) {
  auto lake = *DeepLake::Open(std::make_shared<MemoryStore>());
  TensorOptions vals;
  vals.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("labels", vals).ok());
  ASSERT_TRUE(
      lake->Append({{"labels", Sample::Scalar(int64_t{0}, DType::kInt64)}}).ok());
  ASSERT_TRUE(lake->Commit("seed").ok());

  auto landed = lake->Transact(
      [](tsf::Dataset& ds) {
        return ds.Append({{"labels", Sample::Scalar(int64_t{1}, DType::kInt64)}});
      },
      "append via transact");
  ASSERT_TRUE(landed.ok()) << landed.status();
  EXPECT_EQ(*lake->HeadCommit(), *landed);
  auto row = lake->ReadRow(1);
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->at("labels").AsInt(), 1);
}

TEST(MvccTest, PublishCountersAccount) {
  auto& reg = obs::MetricsRegistry::Global();
  auto* published = reg.GetCounter("version.txn.published");
  auto* conflicts = reg.GetCounter("version.txn.conflicts");
  auto* fast = reg.GetCounter("version.txn.publish_fast_path");
  uint64_t p0 = published->Value(), c0 = conflicts->Value(), f0 = fast->Value();

  auto base = std::make_shared<MemoryStore>();
  auto vc = SeedTree(base, 2);
  auto a = WriteTxn::Begin(vc).MoveValue();
  auto b = WriteTxn::Begin(vc).MoveValue();
  ASSERT_TRUE(AppendVal(**a->dataset(), 1).ok());
  ASSERT_TRUE(AppendVal(**b->dataset(), 2).ok());
  ASSERT_TRUE(a->Publish("wins").ok());
  ASSERT_FALSE(b->Publish("loses").ok());
  ASSERT_TRUE(b->Abort().ok());

  EXPECT_EQ(published->Value(), p0 + 1);
  EXPECT_EQ(conflicts->Value(), c0 + 1);
  EXPECT_EQ(fast->Value(), f0 + 1);
}

}  // namespace
}  // namespace dl
