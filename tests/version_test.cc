// Version-control tests: commit/checkout/branch/diff/merge, chunk-chain
// resolution, time travel, chunk sets (paper §4.2, Fig. 4).

#include <gtest/gtest.h>

#include "storage/storage.h"
#include "tsf/dataset.h"
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

}  // namespace
}  // namespace dl::version
