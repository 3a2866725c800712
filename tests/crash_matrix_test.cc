// Crash-matrix suite (`ctest -L crash`, DESIGN.md §9): run one
// ingest-and-commit workload, enumerate every storage write it performs,
// and for each write N × each CrashMode (missing / torn / duplicate) kill
// the store at write N, reopen the surviving image, and assert the tree
// recovers to *exactly* the pre- or post-commit state — never a third
// thing — with zero corruption surfacing to readers. A parallel clone of
// every crashed image goes through dlfsck's scan/repair library instead,
// which must always converge to a clean tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "util/parallel.h"
#include "util/thread_annotations.h"
#include "version/fsck.h"
#include "version/layout.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace dl {
namespace {

using storage::CrashMode;
using storage::CrashModeName;
using storage::CrashPointStore;
using storage::MemoryStore;
using storage::StorageProvider;
using storage::StoragePtr;
using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using version::FsckIssueKind;
using version::FsckRepair;
using version::FsckScan;
using version::RecoveryReport;
using version::VersionControl;
using version::WriteTxn;

constexpr uint64_t kSeedRows = 5;
constexpr uint64_t kNewRows = 7;
// Seed image: root commit sealed + empty working head → Log() == 2; the
// workload's commit makes it 3.
constexpr size_t kSeedLog = 2;

/// Deep copy of a store — the "disk image" each matrix cell starts from.
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

/// Deterministic ~400-byte blob for row `i`; with 1KB chunks, appends seal
/// chunks mid-ingest, putting data writes inside the crash matrix.
std::string BlobFor(uint64_t i) {
  return std::string(400, static_cast<char>('a' + i % 26));
}

Status AppendRows(Dataset& ds, uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count; ++i) {
    DL_RETURN_IF_ERROR(ds.Append(
        {{"labels", Sample::Scalar(static_cast<int64_t>(i), DType::kInt32)},
         {"payload", Sample::FromString(BlobFor(i))}}));
  }
  return Status::OK();
}

/// One committed version plus an empty working head over a MemoryStore.
StoragePtr BuildSeed() {
  auto base = std::make_shared<MemoryStore>();
  auto vc = VersionControl::OpenOrInit(base).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions labels;
  labels.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", labels).ok());
  // Small chunks: appends seal mid-ingest, so the matrix also enumerates
  // crash points inside data writes, not just the commit manifests.
  TensorOptions payload;
  payload.max_chunk_bytes = 1024;
  payload.sample_compression = "none";
  payload.chunk_compression = "none";
  EXPECT_TRUE(ds->CreateTensor("payload", payload).ok());
  EXPECT_TRUE(AppendRows(*ds, 0, kSeedRows).ok());
  EXPECT_TRUE(ds->Flush().ok());
  EXPECT_TRUE(vc->Commit("seed").ok());
  return base;
}

/// The workload whose writes the matrix enumerates: open the tree, append
/// rows, flush, commit. Returns the first error (the injected crash).
Status RunWorkload(StoragePtr store) {
  DL_ASSIGN_OR_RETURN(auto vc, VersionControl::OpenOrInit(store));
  DL_ASSIGN_OR_RETURN(auto ds, Dataset::Open(vc->working_store()));
  DL_RETURN_IF_ERROR(AppendRows(*ds, kSeedRows, kNewRows));
  DL_RETURN_IF_ERROR(ds->Flush());
  return vc->Commit("second").status();
}

/// Reopens a crashed image and asserts the atomicity contract: the tree
/// opens, the log is the pre- or post-commit chain, a committed head
/// carries ALL the new rows, and every visible row reads back intact.
void VerifyRecovered(StoragePtr base) {
  auto vc = VersionControl::OpenOrInit(base);
  ASSERT_TRUE(vc.ok()) << vc.status();
  auto ds = Dataset::Open((*vc)->working_store());
  ASSERT_TRUE(ds.ok()) << ds.status();
  size_t log_len = (*vc)->Log().size();
  uint64_t rows = (*ds)->NumRows();
  ASSERT_TRUE(log_len == kSeedLog || log_len == kSeedLog + 1)
      << "log length " << log_len << " is neither old nor new";
  if (log_len == kSeedLog + 1) {
    // The commit record landed: the commit must be durable in full.
    EXPECT_EQ(rows, kSeedRows + kNewRows);
  } else {
    // Uncommitted working head: either nothing was staged yet (old state)
    // or the staged key set survived and the torn commit was rolled back.
    EXPECT_TRUE(rows == kSeedRows || rows == kSeedRows + kNewRows)
        << "visible rows " << rows << " is neither old nor new";
  }
  for (uint64_t i = 0; i < rows; ++i) {
    auto row = (*ds)->ReadRow(i);
    ASSERT_TRUE(row.ok()) << "row " << i << ": " << row.status();
    EXPECT_EQ(row->at("labels").AsInt(), static_cast<int64_t>(i));
    EXPECT_EQ(row->at("payload").AsString(), BlobFor(i));
  }
}

/// Runs the full write matrix for one crash mode.
void RunMatrix(CrashMode mode) {
  StoragePtr seed = BuildSeed();

  // Size the matrix: crash_at_write == 0 never fires, just counts.
  auto counter =
      std::make_shared<CrashPointStore>(CloneImage(*seed), 0, mode);
  ASSERT_TRUE(RunWorkload(counter).ok());
  const uint64_t total_writes = counter->writes_seen();
  // Chunk seals + per-tensor manifests + the five commit-protocol writes:
  // a matrix this small means the workload is not exercising the protocol.
  ASSERT_GE(total_writes, 10u);

  uint64_t torn_commits_seen = 0;
  for (uint64_t w = 1; w <= total_writes; ++w) {
    SCOPED_TRACE(std::string("mode=") + CrashModeName(mode) +
                 " crash_at_write=" + std::to_string(w));

    StoragePtr image = CloneImage(*seed);
    auto crash = std::make_shared<CrashPointStore>(image, w, mode);
    Status s = RunWorkload(crash);
    EXPECT_FALSE(s.ok()) << "crash point never surfaced";
    EXPECT_TRUE(crash->crashed());

    // Path 1 — plain reopen: crash recovery alone restores old-or-new.
    StoragePtr recovered = CloneImage(*image);
    VerifyRecovered(recovered);

    // Path 2 — dlfsck on the crashed image: scan never errors, repair
    // always converges to a clean tree that still verifies.
    auto pre = FsckScan(image);
    ASSERT_TRUE(pre.ok()) << pre.status();
    torn_commits_seen += pre->CountOf(FsckIssueKind::kTornCommit);
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

  if (mode == CrashMode::kTorn) {
    // The cell that tears versions/<id>/commit.json — the commit point
    // itself — must be visible to a pre-repair dlfsck scan.
    EXPECT_GE(torn_commits_seen, 1u);
  }
}

TEST(CrashMatrixTest, EveryCrashPointMissing) { RunMatrix(CrashMode::kMissing); }

TEST(CrashMatrixTest, EveryCrashPointTorn) { RunMatrix(CrashMode::kTorn); }

TEST(CrashMatrixTest, EveryCrashPointDuplicate) {
  RunMatrix(CrashMode::kDuplicate);
}

TEST(CrashMatrixTest, CounterModeNeverCrashes) {
  StoragePtr seed = BuildSeed();
  auto counter =
      std::make_shared<CrashPointStore>(seed, 0, CrashMode::kMissing);
  ASSERT_TRUE(RunWorkload(counter).ok());
  EXPECT_FALSE(counter->crashed());
  EXPECT_GT(counter->writes_seen(), 0u);
  // The uncrashed workload lands exactly the new state.
  auto vc = VersionControl::OpenOrInit(seed);
  ASSERT_TRUE(vc.ok()) << vc.status();
  EXPECT_EQ((*vc)->Log().size(), kSeedLog + 1);
  auto ds = Dataset::Open((*vc)->working_store());
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ((*ds)->NumRows(), kSeedRows + kNewRows);
}

TEST(CrashMatrixTest, StoreIsDeadAfterCrashPoint) {
  auto base = std::make_shared<MemoryStore>();
  auto crash = std::make_shared<CrashPointStore>(base, 1, CrashMode::kMissing);
  EXPECT_FALSE(crash->Put("k", ByteView(std::string_view("v"))).ok());
  EXPECT_TRUE(crash->crashed());
  // Everything after the crash fails like a dead process's file handles.
  EXPECT_TRUE(crash->Get("k").status().IsIOError());
  EXPECT_TRUE(crash->Exists("k").status().IsIOError());
  EXPECT_TRUE(crash->ListPrefix("").status().IsIOError());
  EXPECT_TRUE(crash->Delete("k").IsIOError());
  // The missing write really is missing from the base.
  EXPECT_TRUE(base->Get("k").status().IsNotFound());
}

TEST(CrashMatrixTest, TornModeLeavesStrictPrefix) {
  auto base = std::make_shared<MemoryStore>();
  auto crash = std::make_shared<CrashPointStore>(base, 1, CrashMode::kTorn);
  std::string value = "0123456789abcdef";
  EXPECT_FALSE(crash->Put("k", ByteView(value)).ok());
  auto torn = base->Get("k");
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_LT(torn->size(), value.size());
  EXPECT_EQ(ByteView(*torn).ToStringView(),
            std::string_view(value).substr(0, torn->size()));
}

TEST(CrashMatrixTest, DuplicateModeLandsWriteButReportsFailure) {
  auto base = std::make_shared<MemoryStore>();
  auto crash =
      std::make_shared<CrashPointStore>(base, 1, CrashMode::kDuplicate);
  EXPECT_FALSE(crash->Put("k", ByteView(std::string_view("v"))).ok());
  auto v = base->Get("k");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(ByteView(*v).ToStringView(), "v");
}

TEST(CrashMatrixTest, WriterCrashOnAFanOutHelperKillsTheCaller) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "one hardware thread: ParallelFor starts no helper";
  }
  auto base = std::make_shared<MemoryStore>();
  auto crash = std::make_shared<CrashPointStore>(
      base, 1, CrashMode::kMissing, storage::CrashScope::kWriter);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_wrote{false};
  Status s = ParallelFor(2, [&](size_t) -> Status {
    if (std::this_thread::get_id() == caller) {
      // Leave the write to a helper.
      for (int i = 0; i < 10000 && !helper_wrote; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    }
    Status put = crash->Put("helper", ByteView(std::string_view("v")));
    helper_wrote = true;
    return put;
  });
  ASSERT_TRUE(helper_wrote);
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_TRUE(crash->crashed());
  // The helper died as part of the caller's fan-out, so the caller is dead.
  EXPECT_TRUE(crash->Put("caller", ByteView(std::string_view("v"))).IsIOError());
  EXPECT_TRUE(crash->Get("helper").status().IsIOError());
  // A thread outside that fan-out is another writer and carries on.
  Status other;
  std::thread([&] {
    other = crash->Put("other", ByteView(std::string_view("v")));
  }).join();
  EXPECT_TRUE(other.ok()) << other;
}

TEST(CrashMatrixTest, WriterCrashAnywhereInAFlushWaveKillsTheFlusher) {
  auto flush = [](StoragePtr store) -> Status {
    DL_ASSIGN_OR_RETURN(auto vc, VersionControl::OpenOrInit(store));
    DL_ASSIGN_OR_RETURN(auto ds, Dataset::Open(vc->working_store()));
    DL_RETURN_IF_ERROR(AppendRows(*ds, kSeedRows, kNewRows));
    return ds->Flush();
  };
  auto counter =
      std::make_shared<CrashPointStore>(BuildSeed(), 0, CrashMode::kMissing);
  ASSERT_TRUE(flush(counter).ok());
  const uint64_t writes = counter->writes_seen();
  ASSERT_GT(writes, 3u);  // a chunk and an index for each of 3 tensors
  for (uint64_t at = 1; at <= writes; ++at) {
    auto crash = std::make_shared<CrashPointStore>(
        BuildSeed(), at, CrashMode::kMissing, storage::CrashScope::kWriter);
    EXPECT_FALSE(flush(crash).ok()) << "crash at write " << at;
    EXPECT_TRUE(crash->crashed()) << "crash at write " << at;
    EXPECT_TRUE(crash->Put("after", ByteView(std::string_view("v")))
                    .IsIOError())
        << "crash at write " << at;
  }
}

// ---------------------------------------------------------------------------
// What recovery reports, one case per debris shape (DESIGN.md §9.3, §12.4).
// Each case plants one shape in a seed image and checks three views of it:
// the RecoveryReport of a plain reopen, the issue kinds of a dlfsck scan,
// and a clean scan after dlfsck repair (which a later open leaves alone).
// ---------------------------------------------------------------------------

std::string Describe(const RecoveryReport& r) {
  return "rolled_back=" + std::to_string(r.commits_rolled_back) +
         " rolled_forward=" + std::to_string(r.commits_rolled_forward) +
         " keysets_rebuilt=" + std::to_string(r.keysets_rebuilt) +
         " orphans_removed=" + std::to_string(r.orphan_dirs_removed) +
         " quarantined=" + std::to_string(r.dirs_quarantined) +
         " corrupt=" + std::to_string(r.corrupt_manifests) +
         " info_rebuilt=" + std::to_string(r.info_rebuilt) +
         " stale_txns=" + std::to_string(r.stale_txns_removed);
}

std::multiset<std::string> IssueKinds(const version::FsckReport& report) {
  std::multiset<std::string> kinds;
  for (const auto& i : report.issues) {
    kinds.insert(version::FsckIssueKindName(i.kind));
  }
  return kinds;
}

void CheckDebris(StoragePtr image, const RecoveryReport& want,
                 const std::multiset<std::string>& want_kinds) {
  auto vc = VersionControl::OpenOrInit(CloneImage(*image));
  ASSERT_TRUE(vc.ok()) << vc.status();
  EXPECT_EQ(Describe((*vc)->last_recovery()), Describe(want));

  auto scan = FsckScan(image);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(IssueKinds(*scan), want_kinds);
  auto repaired = FsckRepair(image);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->clean())
      << repaired->issues.size() << " issue(s) left, first: "
      << repaired->issues.front().key;
  auto after = VersionControl::OpenOrInit(image);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE((*after)->last_recovery().any())
      << Describe((*after)->last_recovery());
}

struct SeedIds {
  std::string sealed;  // the seed's one sealed commit
  std::string head;    // its empty working head
};

SeedIds IdsOf(StoragePtr image) {
  auto vc = VersionControl::OpenOrInit(image).MoveValue();
  return {vc->SealedHead().MoveValue(), vc->current_commit()};
}

std::string Read(StorageProvider& store, const std::string& key) {
  auto bytes = store.Get(key);
  EXPECT_TRUE(bytes.ok()) << key << ": " << bytes.status();
  return bytes.ok() ? std::string(ByteView(*bytes).ToStringView()) : "";
}

void Write(StorageProvider& store, const std::string& key,
           std::string_view value) {
  ASSERT_TRUE(store.Put(key, ByteView(value)).ok());
}

/// Replaces `key` with the first half of its bytes: a write torn mid-way.
void Tear(StorageProvider& store, const std::string& key) {
  std::string bytes = Read(store, key);
  Write(store, key, std::string_view(bytes).substr(0, bytes.size() / 2));
}

constexpr char kStrayDir[] = "00000000deadbeef";

TEST(RecoveryReportTest, TornRecordOnWorkingHead) {
  StoragePtr image = BuildSeed();
  SeedIds ids = IdsOf(image);
  std::string record = Read(*image, version::CommitRecordKey(ids.sealed));
  Write(*image, version::CommitRecordKey(ids.head),
        std::string_view(record).substr(0, record.size() / 2));
  CheckDebris(image, {.commits_rolled_back = 1, .corrupt_manifests = 1},
              {"torn-commit"});
}

TEST(RecoveryReportTest, ValidRecordNotYetAbsorbed) {
  // The commit crashed after its record and the next head's key set, but
  // before the info snapshot: the snapshot still names the old head.
  StoragePtr image = BuildSeed();
  std::string old_info = Read(*image, VersionControl::kInfoKey);
  ASSERT_TRUE(RunWorkload(image).ok());
  Write(*image, VersionControl::kInfoKey, old_info);
  CheckDebris(image, {.commits_rolled_forward = 1, .orphan_dirs_removed = 1},
              {"orphan-dir"});
}

TEST(RecoveryReportTest, TornKeySet) {
  StoragePtr image = BuildSeed();
  Tear(*image, version::KeySetKey(IdsOf(image).sealed));
  CheckDebris(image, {.keysets_rebuilt = 1, .corrupt_manifests = 1},
              {"corrupt-object", "missing-keyset"});
}

TEST(RecoveryReportTest, MissingKeySet) {
  StoragePtr image = BuildSeed();
  ASSERT_TRUE(image->Delete(version::KeySetKey(IdsOf(image).sealed)).ok());
  CheckDebris(image, {.keysets_rebuilt = 1}, {"missing-keyset"});
}

TEST(RecoveryReportTest, LostInfoAdoptsTheOneRecordlessDir) {
  StoragePtr image = BuildSeed();
  SeedIds ids = IdsOf(image);
  ASSERT_TRUE(image->Delete(VersionControl::kInfoKey).ok());
  {
    auto vc = VersionControl::OpenOrInit(CloneImage(*image));
    ASSERT_TRUE(vc.ok()) << vc.status();
    EXPECT_EQ((*vc)->current_commit(), ids.head);
  }
  CheckDebris(image, {.info_rebuilt = true}, {"bad-info"});
}

TEST(RecoveryReportTest, LostInfoQuarantinesTwoRecordlessDirs) {
  StoragePtr image = BuildSeed();
  SeedIds ids = IdsOf(image);
  Write(*image, version::KeySetKey(kStrayDir),
        Read(*image, version::KeySetKey(ids.head)));
  ASSERT_TRUE(image->Delete(VersionControl::kInfoKey).ok());
  CheckDebris(image, {.dirs_quarantined = 2, .info_rebuilt = true},
              {"bad-info"});
}

TEST(RecoveryReportTest, OrphanDirUnderCleanInfo) {
  StoragePtr image = BuildSeed();
  Write(*image, version::KeySetKey(kStrayDir),
        Read(*image, version::KeySetKey(IdsOf(image).head)));
  CheckDebris(image, {.orphan_dirs_removed = 1}, {"orphan-dir"});
}

TEST(RecoveryReportTest, AbandonedStagingDir) {
  StoragePtr seed = BuildSeed();
  StoragePtr image;
  {
    auto vc = VersionControl::OpenOrInit(seed).MoveValue();
    auto txn = WriteTxn::Begin(vc).MoveValue();
    Dataset* ds = txn->dataset().MoveValue();
    ASSERT_TRUE(AppendRows(*ds, kSeedRows, 2).ok());
    ASSERT_TRUE(ds->Flush().ok());
    image = CloneImage(*seed);  // the writer dies before publishing
  }
  CheckDebris(image, {.stale_txns_removed = 1}, {"stale-txn"});
}

TEST(RecoveryReportTest, LeftoverMarkerOnPublishedCommit) {
  StoragePtr image = BuildSeed();
  std::string landed;
  {
    auto vc = VersionControl::OpenOrInit(image).MoveValue();
    auto txn = WriteTxn::Begin(vc).MoveValue();
    Dataset* ds = txn->dataset().MoveValue();
    ASSERT_TRUE(AppendRows(*ds, kSeedRows, 2).ok());
    landed = txn->Publish("txn").MoveValue();
  }
  // The commit record landed but the marker survived it: only dlfsck
  // flags this; recovery has nothing to do.
  Write(*image, version::TxnMarkerKey(landed), "{}");
  CheckDebris(image, {}, {"stale-txn"});
}

// ---------------------------------------------------------------------------
// The journaled write order of DESIGN.md §9.3, pinned op by op.
// ---------------------------------------------------------------------------

/// Records every storage operation as "<op> <key>", in issue order.
class RecordingStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  Result<Slice> Get(std::string_view key) override {
    Note("get", key);
    return ForwardingStore::Get(key);
  }
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override {
    Note("get_range", key);
    return ForwardingStore::GetRange(key, offset, length);
  }
  Status Put(std::string_view key, ByteView value) override {
    Note("put", key);
    return ForwardingStore::Put(key, value);
  }
  Status PutDurable(std::string_view key, ByteView value) override {
    Note("put_durable", key);
    return ForwardingStore::PutDurable(key, value);
  }
  Status Delete(std::string_view key) override {
    Note("delete", key);
    return ForwardingStore::Delete(key);
  }
  Result<bool> Exists(std::string_view key) override {
    Note("exists", key);
    return ForwardingStore::Exists(key);
  }
  Result<uint64_t> SizeOf(std::string_view key) override {
    Note("size_of", key);
    return ForwardingStore::SizeOf(key);
  }
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override {
    Note("list", prefix);
    return ForwardingStore::ListPrefix(prefix);
  }
  std::string name() const override { return "recording"; }

  std::vector<std::string> Writes() const {
    std::vector<std::string> writes;
    for (const auto& op : ops) {
      if (StartsWith(op, "put") || StartsWith(op, "delete")) {
        writes.push_back(op);
      }
    }
    return writes;
  }

  // Read and cleared only between operations; Note appends under ops_mu_,
  // since a dataset flush calls the store from several threads.
  std::vector<std::string> ops;

 private:
  void Note(const char* op, std::string_view key) {
    MutexLock lock(ops_mu_);
    ops.push_back(std::string(op) + " " + std::string(key));
  }
  Mutex ops_mu_{"test.recording_store.mu"};
};

TEST(CommitWriteOrderTest, CommitIsFiveDurableManifestWrites) {
  auto rec = std::make_shared<RecordingStore>(BuildSeed());
  auto vc = VersionControl::OpenOrInit(rec).MoveValue();
  auto ds = Dataset::Open(vc->working_store()).MoveValue();
  ASSERT_TRUE(AppendRows(*ds, kSeedRows, kNewRows).ok());
  ASSERT_TRUE(ds->Flush().ok());
  const std::string sealed = vc->current_commit();
  rec->ops.clear();
  ASSERT_TRUE(vc->Commit("second").ok());
  const std::string next = vc->current_commit();
  EXPECT_EQ(rec->Writes(),
            (std::vector<std::string>{
                "put_durable " + version::KeySetKey(sealed),
                "put_durable " + version::DiffKey(sealed),
                "put_durable " + version::CommitRecordKey(sealed),
                "put_durable " + version::KeySetKey(next),
                std::string("put_durable ") + VersionControl::kInfoKey}));
}

TEST(CommitWriteOrderTest, FastPathPublishDropsMarkerBeforeRecord) {
  auto rec = std::make_shared<RecordingStore>(BuildSeed());
  auto vc = VersionControl::OpenOrInit(rec).MoveValue();
  const std::string head = vc->current_commit();
  auto txn = WriteTxn::Begin(vc).MoveValue();
  Dataset* ds = txn->dataset().MoveValue();
  ASSERT_TRUE(AppendRows(*ds, kSeedRows, 2).ok());
  const std::string id = txn->id();
  rec->ops.clear();
  auto landed = txn->Publish("txn");
  ASSERT_TRUE(landed.ok()) << landed.status();
  EXPECT_EQ(*landed, id);  // fast path: the staging commit itself lands

  // The transaction's dataset flush comes first and stays in its own
  // directory; then the seal, then the version tree's Flush.
  std::vector<std::string> writes = rec->Writes();
  const std::string seal_first = "put_durable " + version::KeySetKey(id);
  auto seal = std::find(writes.begin(), writes.end(), seal_first);
  ASSERT_NE(seal, writes.end());
  for (auto it = writes.begin(); it != seal; ++it) {
    EXPECT_NE(it->find(" " + version::VersionDir(id) + "/"),
              std::string::npos)
        << *it;
  }
  EXPECT_EQ(std::vector<std::string>(seal, writes.end()),
            (std::vector<std::string>{
                seal_first,
                "put_durable " + version::DiffKey(id),
                "delete " + version::TxnMarkerKey(id),
                "put_durable " + version::CommitRecordKey(id),
                "put_durable " + version::KeySetKey(head),
                std::string("put_durable ") + VersionControl::kInfoKey}));
}

TEST(CommitWriteOrderTest, CleanOpenOnlyReads) {
  StoragePtr image = BuildSeed();
  ASSERT_TRUE(RunWorkload(image).ok());
  auto rec = std::make_shared<RecordingStore>(image);
  auto vc = VersionControl::OpenOrInit(rec);
  ASSERT_TRUE(vc.ok()) << vc.status();
  EXPECT_FALSE((*vc)->last_recovery().any());
  // Root, the workload's commit and the working head, in id order.
  std::vector<std::string> ids;
  for (const auto& c : (*vc)->Log()) ids.push_back(c.id);
  ASSERT_EQ(ids.size(), kSeedLog + 1);
  std::sort(ids.begin(), ids.end());
  std::vector<std::string> want = {
      std::string("exists ") + VersionControl::kInfoKey,
      std::string("get ") + VersionControl::kInfoKey};
  for (const auto& id : ids) want.push_back("get " + version::KeySetKey(id));
  want.push_back(std::string("list ") + version::kVersionsPrefix);
  for (const auto& id : ids) {
    want.push_back("get " + version::CommitRecordKey(id));
  }
  EXPECT_EQ(rec->ops, want);
}

}  // namespace
}  // namespace dl
