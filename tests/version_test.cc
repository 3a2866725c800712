// Version-control tests: commit/checkout/branch/diff/merge, chunk-chain
// resolution, time travel, chunk sets (paper §4.2, Fig. 4).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/deeplake.h"
#include "sim/network_model.h"
#include "storage/storage.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "version/layout.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace dl::version {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;

storage::StoragePtr Mem() { return std::make_shared<storage::MemoryStore>(); }

Status AppendScalar(Dataset& ds, const std::string& tensor, int value) {
  return ds.Append({{tensor, Sample::Scalar(value, DType::kInt32)}});
}

struct Fixture {
  storage::StoragePtr base = Mem();
  std::shared_ptr<VersionControl> vc;
  std::shared_ptr<Dataset> ds;

  Fixture() {
    vc = VersionControl::OpenOrInit(base).MoveValue();
    ds = Dataset::Create(vc->working_store()).MoveValue();
    TensorOptions opts;
    opts.htype = "class_label";
    EXPECT_TRUE(ds->CreateTensor("labels", opts).ok());
  }

  /// Reopens the dataset over the current working store (after checkout).
  void Reopen() { ds = Dataset::Open(vc->working_store()).MoveValue(); }
};

TEST(VersionControlTest, InitCreatesMainBranch) {
  auto vc = VersionControl::OpenOrInit(Mem());
  ASSERT_TRUE(vc.ok()) << vc.status();
  EXPECT_EQ((*vc)->current_branch(), "main");
  EXPECT_EQ((*vc)->Branches().size(), 1u);
  EXPECT_FALSE((*vc)->current_commit().empty());
}

TEST(VersionControlTest, CommitSealsAndAdvances) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 1).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  std::string head_before = f.vc->current_commit();
  auto sealed = f.vc->Commit("first data");
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_EQ(*sealed, head_before);
  EXPECT_NE(f.vc->current_commit(), head_before);
  auto info = f.vc->GetCommit(*sealed);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->committed);
  EXPECT_EQ(info->message, "first data");
  // The new working commit descends from the sealed one.
  auto head_info = f.vc->GetCommit(f.vc->current_commit());
  ASSERT_TRUE(head_info.ok());
  EXPECT_EQ(head_info->parent, *sealed);
  EXPECT_FALSE(head_info->committed);
}

TEST(VersionControlTest, ChainResolutionReadsThroughCommits) {
  Fixture f;
  // Commit 1: rows 0..4. Commit 2: rows 5..9 (chunks in a new directory).
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(AppendScalar(*f.ds, "labels", i).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("c1").ok());
  f.Reopen();
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(AppendScalar(*f.ds, "labels", i).ok());
  }
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("c2").ok());

  // All ten rows are visible at the current head even though the first five
  // rows' chunks physically live in the first commit's directory.
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.ds->ReadRow(i)->at("labels").AsInt(), i);
  }
}

TEST(VersionControlTest, TimeTravelReadsOldVersion) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 7).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  auto v1 = f.vc->Commit("v1");
  ASSERT_TRUE(v1.ok());
  f.Reopen();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AppendScalar(*f.ds, "labels", 9).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("v2").ok());

  // Read at v1: only one row exists.
  auto store_v1 = f.vc->StoreAt(*v1);
  ASSERT_TRUE(store_v1.ok());
  auto ds_v1 = Dataset::Open(*store_v1);
  ASSERT_TRUE(ds_v1.ok()) << ds_v1.status();
  EXPECT_EQ((*ds_v1)->NumRows(), 1u);
  EXPECT_EQ((*ds_v1)->ReadRow(0)->at("labels").AsInt(), 7);
  // And it is read-only: appends buffer in memory, but persisting fails.
  ASSERT_TRUE(AppendScalar(**ds_v1, "labels", 1).ok());
  EXPECT_TRUE((*ds_v1)->Flush().IsFailedPrecondition());
}

TEST(VersionControlTest, DetachedCheckout) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 1).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  auto v1 = f.vc->Commit("v1");
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(f.vc->CheckoutCommit(*v1).ok());
  EXPECT_TRUE(f.vc->detached());
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 1u);
  // Cannot commit while detached.
  EXPECT_TRUE(f.vc->Commit("nope").status().IsFailedPrecondition());
  // Cannot detach onto an unsealed working head.
  ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
  EXPECT_TRUE(f.vc->CheckoutCommit(f.vc->current_commit())
                  .IsFailedPrecondition());
}

TEST(VersionControlTest, BranchingIsolatesWrites) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 0).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("base").ok());

  ASSERT_TRUE(f.vc->CheckoutBranch("experiment", /*create=*/true).ok());
  f.Reopen();
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 100).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("exp work").ok());
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 2u);

  // main never saw the experiment rows.
  ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 1u);
  EXPECT_EQ(f.vc->Branches().size(), 2u);
}

TEST(VersionControlTest, DirtyWorkingSetAutoCommitsOnBranch) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 5).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  // No explicit commit: creating a branch must not share the mutable dir.
  ASSERT_TRUE(f.vc->CheckoutBranch("b2", /*create=*/true).ok());
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 1u);  // sees the auto-committed row
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 6).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 1u);  // b2's row invisible on main
}

TEST(VersionControlTest, PersistsAcrossReopen) {
  auto base = Mem();
  std::string sealed;
  {
    auto vc = VersionControl::OpenOrInit(base).MoveValue();
    auto ds = Dataset::Create(vc->working_store()).MoveValue();
    TensorOptions opts;
    opts.htype = "class_label";
    ASSERT_TRUE(ds->CreateTensor("labels", opts).ok());
    ASSERT_TRUE(AppendScalar(*ds, "labels", 42).ok());
    ASSERT_TRUE(ds->Flush().ok());
    sealed = vc->Commit("persisted").MoveValue();
    ASSERT_TRUE(vc->CheckoutBranch("side", true).ok());
    ASSERT_TRUE(vc->Flush().ok());
  }
  auto vc2 = VersionControl::OpenOrInit(base);
  ASSERT_TRUE(vc2.ok()) << vc2.status();
  EXPECT_EQ((*vc2)->current_branch(), "side");
  EXPECT_EQ((*vc2)->Branches().size(), 2u);
  auto info = (*vc2)->GetCommit(sealed);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->message, "persisted");
  auto ds = Dataset::Open((*vc2)->working_store());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->ReadRow(0)->at("labels").AsInt(), 42);
}

TEST(VersionControlTest, FailedCommitLeavesHeadUnsealed) {
  auto base = Mem();
  auto faulty = std::make_shared<storage::FaultInjectionStore>(
      base, UINT64_MAX, storage::kFaultPut);
  auto vc = VersionControl::OpenOrInit(faulty).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions opts;
  opts.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", opts).ok());
  ASSERT_TRUE(AppendScalar(*ds, "labels", 1).ok());
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE(vc->Commit("first").ok());
  ASSERT_TRUE(AppendScalar(*ds, "labels", 2).ok());
  ASSERT_TRUE(ds->Flush().ok());
  const std::string head = vc->current_commit();
  auto sealed_before = vc->SealedHead();
  ASSERT_TRUE(sealed_before.ok()) << sealed_before.status();
  const size_t log_before = vc->Log().size();

  // Every write fails: the seal's first manifest never lands, so no
  // commit record exists and the head must stay the open working head.
  faulty->set_fail_every(1);
  EXPECT_FALSE(vc->Commit("should fail").ok());
  faulty->set_fail_every(UINT64_MAX);

  auto info = vc->GetCommit(head);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_FALSE(info->committed);
  EXPECT_EQ(vc->current_commit(), head);
  EXPECT_EQ(vc->Log().front().message, "");
  auto sealed_after = vc->SealedHead();
  ASSERT_TRUE(sealed_after.ok()) << sealed_after.status();
  EXPECT_EQ(*sealed_after, *sealed_before);

  auto retried = vc->Commit("retried");
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(*retried, head);
  auto reopened = VersionControl::OpenOrInit(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->last_recovery().any());
  auto log = (*reopened)->Log();
  ASSERT_EQ(log.size(), log_before + 1);
  EXPECT_EQ(log[1].id, head);
  EXPECT_EQ(log[1].message, "retried");
  EXPECT_EQ(log[2].message, "first");
}

TEST(VersionControlTest, LogWalksChain) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 1).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("one").ok());
  f.Reopen();
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 2).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("two").ok());
  auto log = f.vc->Log();
  ASSERT_EQ(log.size(), 3u);  // working head + two sealed
  EXPECT_FALSE(log[0].committed);
  EXPECT_EQ(log[1].message, "two");
  EXPECT_EQ(log[2].message, "one");
}

TEST(VersionControlTest, ChunkSetListsModifiedChunks) {
  Fixture f;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AppendScalar(*f.ds, "labels", i).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  std::string head = f.vc->current_commit();
  auto chunks = f.vc->ChunkSetOf(head, "labels");
  ASSERT_TRUE(chunks.ok());
  EXPECT_GE(chunks->size(), 1u);
  // A commit that only touches another tensor has an empty chunk set for
  // "labels".
  ASSERT_TRUE(f.vc->Commit("c1").ok());
  f.Reopen();
  ASSERT_TRUE(f.ds->CreateTensor("other", {}).ok());
  ASSERT_TRUE(f.ds
                  ->Append({{"other", Sample::Scalar(1, DType::kUInt8)},
                            {"labels", Sample::Scalar(9, DType::kInt32)}})
                  .ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  auto chunks2 = f.vc->ChunkSetOf(f.vc->current_commit(), "other");
  ASSERT_TRUE(chunks2.ok());
  EXPECT_GE(chunks2->size(), 1u);
}

TEST(VersionControlTest, DiffReportsAddedAndModified) {
  Fixture f;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(AppendScalar(*f.ds, "labels", i).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  auto v1 = f.vc->Commit("v1").MoveValue();
  f.Reopen();
  // Modify row 1 and add two rows.
  auto labels = f.ds->GetTensor("labels").MoveValue();
  ASSERT_TRUE(labels->Update(1, Sample::Scalar(99, DType::kInt32)).ok());
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 4).ok());
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 5).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  auto v2 = f.vc->Commit("v2").MoveValue();

  auto diffs = f.vc->Diff(v1, v2);
  ASSERT_TRUE(diffs.ok()) << diffs.status();
  ASSERT_TRUE(diffs->count("labels") > 0);
  const TensorDiff& d = diffs->at("labels");
  EXPECT_EQ(d.length_a, 4u);
  EXPECT_EQ(d.length_b, 6u);
  EXPECT_EQ(d.samples_added(), 2u);
  // The rewritten chunk shows up as a modified range covering row 1.
  ASSERT_FALSE(d.modified_ranges.empty());
  bool covers = false;
  for (auto [lo, hi] : d.modified_ranges) {
    if (lo <= 1 && 1 <= hi) covers = true;
  }
  EXPECT_TRUE(covers);
  // Identical commits produce an empty diff.
  auto self_diff = f.vc->Diff(v2, v2);
  ASSERT_TRUE(self_diff.ok());
  EXPECT_TRUE(self_diff->empty());
}

TEST(VersionControlTest, MergeAppendsNewRows) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 0).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("base").ok());

  ASSERT_TRUE(f.vc->CheckoutBranch("feature", true).ok());
  f.Reopen();
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 10).ok());
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 11).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("feature rows").ok());

  ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
  auto stats = f.vc->Merge("feature", MergePolicy::kTheirs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_appended, 2u);
  EXPECT_EQ(stats->conflicts, 0u);
  f.Reopen();
  EXPECT_EQ(f.ds->NumRows(), 3u);
}

TEST(VersionControlTest, MergeConflictPolicies) {
  // Both branches modify row 0; policies decide the survivor.
  for (MergePolicy policy :
       {MergePolicy::kOurs, MergePolicy::kTheirs, MergePolicy::kError}) {
    Fixture f;
    ASSERT_TRUE(AppendScalar(*f.ds, "labels", 1).ok());
    ASSERT_TRUE(f.ds->Flush().ok());
    ASSERT_TRUE(f.vc->Commit("base").ok());

    ASSERT_TRUE(f.vc->CheckoutBranch("feature", true).ok());
    f.Reopen();
    auto lf = f.ds->GetTensor("labels").MoveValue();
    ASSERT_TRUE(lf->Update(0, Sample::Scalar(200, DType::kInt32)).ok());
    ASSERT_TRUE(f.ds->Flush().ok());
    ASSERT_TRUE(f.vc->Commit("theirs change").ok());

    ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
    f.Reopen();
    auto lm = f.ds->GetTensor("labels").MoveValue();
    ASSERT_TRUE(lm->Update(0, Sample::Scalar(100, DType::kInt32)).ok());
    ASSERT_TRUE(f.ds->Flush().ok());

    auto stats = f.vc->Merge("feature", policy);
    if (policy == MergePolicy::kError) {
      EXPECT_TRUE(stats.status().IsAborted());
      continue;
    }
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->conflicts, 1u);
    f.Reopen();
    int expected = policy == MergePolicy::kOurs ? 100 : 200;
    EXPECT_EQ(f.ds->ReadRow(0)->at("labels").AsInt(), expected);
  }
}

TEST(VersionControlTest, MergeCreatesMissingTensors) {
  Fixture f;
  ASSERT_TRUE(AppendScalar(*f.ds, "labels", 1).ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("base").ok());

  ASSERT_TRUE(f.vc->CheckoutBranch("annot", true).ok());
  f.Reopen();
  ASSERT_TRUE(f.ds->CreateTensor("notes", {}).ok());
  ASSERT_TRUE(f.ds
                  ->Append({{"labels", Sample::Scalar(2, DType::kInt32)},
                            {"notes", Sample::FromString("hello")}})
                  .ok());
  ASSERT_TRUE(f.ds->Flush().ok());
  ASSERT_TRUE(f.vc->Commit("notes").ok());

  ASSERT_TRUE(f.vc->CheckoutBranch("main").ok());
  auto stats = f.vc->Merge("annot", MergePolicy::kTheirs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  f.Reopen();
  EXPECT_TRUE(f.ds->HasTensor("notes"));
  EXPECT_EQ(f.ds->NumRows(), 2u);
}

TEST(VersionControlTest, MergeUnknownBranchFails) {
  Fixture f;
  EXPECT_TRUE(f.vc->Merge("ghost", MergePolicy::kOurs).status().IsNotFound());
  EXPECT_TRUE(
      f.vc->Merge("main", MergePolicy::kOurs).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// DeepLake::Commit: one flush wave, the seal handed its diffs, the dataset
// kept open (DESIGN.md §9.3).
// ---------------------------------------------------------------------------

/// Logs every write (put, durable put, delete) by key and counts every
/// read. Thread-safe, as every provider must be: a dataset flush calls it
/// from several threads.
class OpLogStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  Result<Slice> Get(std::string_view key) override {
    ++reads;
    return ForwardingStore::Get(key);
  }
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override {
    ++reads;
    return ForwardingStore::GetRange(key, offset, length);
  }
  Result<bool> Exists(std::string_view key) override {
    ++reads;
    return ForwardingStore::Exists(key);
  }
  Result<uint64_t> SizeOf(std::string_view key) override {
    ++reads;
    return ForwardingStore::SizeOf(key);
  }
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override {
    ++reads;
    return ForwardingStore::ListPrefix(prefix);
  }
  Status Put(std::string_view key, ByteView value) override {
    Note("put ", key);
    return ForwardingStore::Put(key, value);
  }
  Status PutDurable(std::string_view key, ByteView value) override {
    Note("put_durable ", key);
    return ForwardingStore::PutDurable(key, value);
  }
  Status Delete(std::string_view key) override {
    Note("delete ", key);
    return ForwardingStore::Delete(key);
  }
  std::string name() const override { return "op-log"; }

  /// The writes since the last call, in the order they were issued.
  std::vector<std::string> TakeWrites() {
    MutexLock lock(mu_);
    return std::exchange(writes_, {});
  }

  std::atomic<uint64_t> reads{0};

 private:
  void Note(const char* op, std::string_view key) {
    MutexLock lock(mu_);
    writes_.push_back(op + std::string(key));
  }
  Mutex mu_{"test.op_log_store.mu"};
  std::vector<std::string> writes_ DL_GUARDED_BY(mu_);
};

/// One line per tensor: "name a->b [lo,hi]...".
std::string RenderDiffs(const std::map<std::string, TensorDiff>& diffs) {
  std::string out;
  for (const auto& [name, d] : diffs) {
    out += name + " " + std::to_string(d.length_a) + "->" +
           std::to_string(d.length_b);
    for (const auto& [lo, hi] : d.modified_ranges) {
      out += " [" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    }
    out += "\n";
  }
  return out;
}

/// versions/<id>/diff.json as read back from `store`, rendered as above.
std::string DiffFileOf(storage::StorageProvider& store,
                       const std::string& id) {
  auto bytes = storage::GetVerified(store, DiffKey(id));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  if (!bytes.ok()) return "";
  auto j = Json::Parse(bytes->ToStringView());
  EXPECT_TRUE(j.ok()) << j.status();
  if (!j.ok()) return "";
  std::map<std::string, TensorDiff> diffs;
  for (const auto& [name, t] : j->Get("tensors").object()) {
    TensorDiff& d = diffs[name];
    d.length_a = static_cast<uint64_t>(t.Get("length_before").as_number());
    d.length_b = static_cast<uint64_t>(t.Get("length_after").as_number());
    for (const Json& r : t.Get("modified_ranges").array()) {
      d.modified_ranges.emplace_back(static_cast<uint64_t>(r[0].as_number()),
                                     static_cast<uint64_t>(r[1].as_number()));
    }
  }
  return RenderDiffs(diffs);
}

/// Rows of every visible tensor, by name.
using Model = std::map<std::string, std::vector<int64_t>>;

/// Asserts `ds` holds exactly the visible tensors and rows of `model`.
void ExpectRows(tsf::Dataset& ds, const Model& model,
                const std::string& where) {
  EXPECT_EQ(ds.TensorNames().size(), model.size()) << where;
  for (const auto& [name, rows] : model) {
    auto t = ds.GetTensor(name);
    ASSERT_TRUE(t.ok()) << where << ": " << t.status();
    ASSERT_EQ((*t)->NumSamples(), rows.size()) << where << " " << name;
    for (uint64_t i = 0; i < rows.size(); ++i) {
      auto got = (*t)->Read(i);
      ASSERT_TRUE(got.ok()) << where << " " << name << "[" << i << "]";
      EXPECT_EQ(got->AsInt(), rows[i]) << where << " " << name << "[" << i
                                       << "]";
    }
  }
}

Sample Int(int64_t v) { return Sample::Scalar(v, DType::kInt64); }

/// A 320-byte int64 row filled with `v`: three rows fill a 1 KiB chunk.
Sample Row(int64_t v) {
  return Sample::FromVector(std::vector<int64_t>(40, v), DType::kInt64);
}

TEST(DeepLakeCommitTest, DiffFilesAndSnapshotsMatchAReferenceModel) {
  auto base = Mem();
  auto log = std::make_shared<OpLogStore>(base);
  auto lake = DeepLake::Open(log).MoveValue();
  Rng rng(27);
  Model head;                       // the working head's rows
  std::map<std::string, Model> at;  // each sealed commit's rows
  int64_t next_value = 1;
  int created = 0;

  auto tensor = [&](const std::string& name) {
    return lake->dataset().GetTensor(name).MoveValue();
  };
  auto pick = [&]() {
    auto it = head.begin();
    std::advance(it, static_cast<long>(rng.Uniform(head.size())));
    return it->first;
  };
  enum Op { kAppendAll, kAppendOne, kUpdate, kRechunk, kCreate, kNumOps };
  auto apply = [&](Op op) {
    switch (op) {
      case kAppendAll:
        for (uint64_t k = 1 + rng.Uniform(9); k > 0; --k) {
          std::map<std::string, Sample> row;
          for (auto& [name, rows] : head) {
            row[name] = Row(next_value);
            rows.push_back(next_value++);
          }
          ASSERT_TRUE(lake->Append(row).ok());
        }
        break;
      case kAppendOne: {
        std::string name = pick();
        for (uint64_t k = 1 + rng.Uniform(5); k > 0; --k) {
          ASSERT_TRUE(tensor(name)->Append(Row(next_value)).ok());
          head[name].push_back(next_value++);
        }
        break;
      }
      case kUpdate: {
        std::string name = pick();
        std::vector<int64_t>& rows = head[name];
        if (rows.empty()) break;
        uint64_t start = rng.Uniform(rows.size());
        uint64_t len = 1 + rng.Uniform(std::min<uint64_t>(5, rows.size() - start));
        std::vector<Sample> samples;
        for (uint64_t i = start; i < start + len; ++i) {
          samples.push_back(Row(next_value));
          rows[i] = next_value++;
        }
        ASSERT_TRUE(tensor(name)->UpdateContiguous(start, samples).ok());
        break;
      }
      case kRechunk:
        ASSERT_TRUE(tensor(pick())->Rechunk().ok());
        break;
      case kCreate: {
        TensorOptions opts;
        opts.dtype = "int64";
        opts.sample_compression = "none";
        opts.chunk_compression = created % 2 == 0 ? "none" : "lz77";
        opts.max_chunk_bytes = 1024 * (1 + created % 2);  // 3 or 6 rows a chunk
        std::string name = "t" + std::to_string(created++);
        ASSERT_TRUE(lake->CreateTensor(name, opts).ok());
        head[name];
        break;
      }
      case kNumOps:
        break;
    }
  };

  for (int r = 0; r < 8; ++r) {
    const std::string where = "round " + std::to_string(r);
    // Rounds that take the guarded path: the first commit of a lake, the
    // first after Open, and commits whose head a transaction reparented.
    bool guarded = r == 0;
    std::vector<Op> ops;
    if (r == 0) {
      ops = {kCreate, kAppendAll, kCreate, kAppendAll};
    } else if (r == 1) {
      ops = {kUpdate, kAppendOne, kRechunk};
    } else if (r == 2) {
      // An empty round.
    } else if (r == 3) {
      lake.reset();
      lake = DeepLake::Open(log).MoveValue();
      guarded = true;
      ops = {kCreate, kAppendAll, kUpdate};
    } else if (r == 5) {
      // A transaction published onto the clean head; the lake commits
      // nothing of its own on top.
      auto txn = lake->BeginTxn("oracle").MoveValue();
      tsf::Dataset* staged = txn->dataset().MoveValue();
      std::string name = pick();
      for (int k = 0; k < 3; ++k) {
        ASSERT_TRUE(staged->GetTensor(name).MoveValue()
                        ->Append(Row(next_value)).ok());
        head[name].push_back(next_value++);
      }
      auto landed = txn->Publish("txn");
      ASSERT_TRUE(landed.ok()) << landed.status();
      at[*landed] = head;
      guarded = true;
    } else if (r == 6) {
      std::string name = pick();
      std::vector<int64_t> values = {next_value, next_value + 1};
      next_value += 2;
      auto landed = lake->Transact(
          [&](tsf::Dataset& ds) -> Status {
            DL_ASSIGN_OR_RETURN(tsf::Tensor * t, ds.GetTensor(name));
            for (int64_t v : values) DL_RETURN_IF_ERROR(t->Append(Row(v)));
            return Status::OK();
          },
          "transact");
      ASSERT_TRUE(landed.ok()) << landed.status();
      head[name].insert(head[name].end(), values.begin(), values.end());
      at[*landed] = head;
      guarded = true;
      ops = {kUpdate, kAppendAll};
    } else {
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        ops.push_back(static_cast<Op>(rng.Uniform(kNumOps)));
      }
    }
    for (Op op : ops) {
      apply(op);
      if (HasFatalFailure()) return;
    }

    log->reads = 0;
    auto id = lake->Commit(where);
    ASSERT_TRUE(id.ok()) << where << ": " << id.status();
    if (guarded) {
      EXPECT_GT(log->reads.load(), 0u) << where;
    } else {
      EXPECT_EQ(log->reads.load(), 0u) << where;
    }
    at[*id] = head;

    VersionControl* vc = lake->version_control();
    CommitInfo sealed = vc->GetCommit(*id).MoveValue();
    if (!sealed.parent.empty()) {
      auto read_back = vc->Diff(sealed.parent, *id);
      ASSERT_TRUE(read_back.ok()) << where << ": " << read_back.status();
      EXPECT_EQ(DiffFileOf(*base, *id), RenderDiffs(*read_back)) << where;
    }
    ExpectRows(lake->dataset(), head, where + " head");
    if (HasFatalFailure()) return;
  }
  for (const auto& [id, model] : at) {
    auto snapshot = lake->At(id);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ExpectRows(**snapshot, model, "At(" + id + ")");
  }
}

TEST(DeepLakeCommitTest, EmptyCommitWritesOnlyTheVersionRecords) {
  auto base = Mem();
  auto log = std::make_shared<OpLogStore>(base);
  {
    auto lake = DeepLake::Open(log).MoveValue();
    TensorOptions opts;
    opts.htype = "class_label";
    ASSERT_TRUE(lake->CreateTensor("labels", opts).ok());
    ASSERT_TRUE(lake->Append({{"labels", Sample::Scalar(1, DType::kInt32)}})
                    .ok());
    ASSERT_TRUE(lake->Commit("rows").ok());
  }
  // The first commit after Open takes the guarded path; the second the
  // kept encoders. Either way an empty commit writes its 5 version
  // records and nothing else.
  auto lake = DeepLake::Open(log).MoveValue();
  VersionControl* vc = lake->version_control();
  for (int round = 0; round < 2; ++round) {
    const std::string sealed = vc->current_commit();
    log->TakeWrites();
    log->reads = 0;
    ASSERT_TRUE(lake->Commit("empty").ok());
    const std::string next = vc->current_commit();
    EXPECT_EQ(log->TakeWrites(),
              (std::vector<std::string>{
                  "put_durable " + KeySetKey(sealed),
                  "put_durable " + DiffKey(sealed),
                  "put_durable " + CommitRecordKey(sealed),
                  "put_durable " + KeySetKey(next),
                  std::string("put_durable ") + VersionControl::kInfoKey}))
        << "round " << round;
    if (round == 1) {
      EXPECT_EQ(log->reads.load(), 0u);
    }
    EXPECT_EQ(DiffFileOf(*base, sealed), "") << "round " << round;
  }
  EXPECT_EQ(lake->NumRows(), 1u);
}

TEST(DeepLakeCommitTest, OpenTensorsSurviveCommit) {
  auto lake = DeepLake::Open(Mem()).MoveValue();
  TensorOptions opts;
  opts.dtype = "int64";
  opts.max_chunk_bytes = 1024;  // 3 rows a chunk
  ASSERT_TRUE(lake->CreateTensor("values", opts).ok());
  ASSERT_TRUE(lake->Commit("schema").ok());
  tsf::Dataset* ds = &lake->dataset();
  tsf::Tensor* values = lake->dataset().GetTensor("values").MoveValue();
  int64_t n = 0;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 13; ++k) {
      ASSERT_TRUE(lake->Append({{"values", Row(n++)}}).ok());
    }
    ASSERT_TRUE(values->Read(static_cast<uint64_t>(n) - 1).ok());  // cached
    ASSERT_TRUE(lake->Commit("round " + std::to_string(round)).ok());
    EXPECT_EQ(&lake->dataset(), ds);
    EXPECT_EQ(lake->dataset().GetTensor("values").MoveValue(), values);
  }
  // Writes after the commit land on the new working head through the same
  // tensor, and every reader sees every row.
  ASSERT_TRUE(values->Append(Row(n++)).ok());
  ASSERT_TRUE(lake->Flush().ok());
  ASSERT_EQ(values->NumSamples(), static_cast<uint64_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(values->Read(static_cast<uint64_t>(i))->AsInt(), i);
  }
  stream::DataloaderOptions lopts;
  lopts.batch_size = 5;
  lopts.num_workers = 2;
  auto loader = lake->Dataloader(lopts);
  stream::Batch batch;
  std::vector<int64_t> seen;
  while (*loader->Next(&batch)) {
    for (const Sample& s : batch.columns["values"]) seen.push_back(s.AsInt());
  }
  std::vector<int64_t> want(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(seen, want);
  auto sealed = lake->Commit("tail");
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  auto snapshot = lake->At(*sealed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ((*snapshot)->NumRows(), static_cast<uint64_t>(n));
}

TEST(DeepLakeCommitTest, ModeledS3CommitIsOneFlushWaveAndFiveRecords) {
  // 13 calls, 7 deep: a chunk then an index per tensor, all tensors at
  // once, then the 5 ordered version records. At 12-16 ms a call the 41
  // serial calls of a commit that read its diffs back and reopened the
  // dataset took about 0.55 s.
  auto lake = DeepLake::Open(std::make_shared<sim::SimulatedObjectStore>(
                                 Mem(), sim::NetworkModel::S3SameRegion()))
                  .MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  ASSERT_TRUE(lake->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(lake->CreateTensor("labels", lbl).ok());
  TensorOptions idx;
  idx.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("index", idx).ok());
  auto append_round = [&](int64_t first) {
    for (int64_t i = first; i < first + 32; ++i) {
      ASSERT_TRUE(
          lake->Append({{"images", Sample(DType::kUInt8, tsf::TensorShape{8, 8, 3},
                                          ByteBuffer(192, uint8_t(i)))},
                        {"labels", Sample::Scalar(int32_t(i % 10),
                                                  DType::kInt32)},
                        {"index", Int(i)}})
              .ok());
    }
  };
  append_round(0);
  ASSERT_TRUE(lake->Commit("first").ok());
  append_round(32);
  Stopwatch watch;
  ASSERT_TRUE(lake->Commit("round").ok());
  EXPECT_LT(watch.ElapsedMicros(), 300000);
  EXPECT_EQ(lake->NumRows(), 64u);
}

}  // namespace
}  // namespace dl::version
