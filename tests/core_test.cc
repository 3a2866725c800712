// End-to-end tests of the DeepLake façade: the full ML loop of the paper's
// Fig. 2 — ingest, version, query, stream, visualize — through one handle.

#include <gtest/gtest.h>

#include <atomic>

#include "core/deeplake.h"
#include "sim/workload.h"
#include "storage/storage.h"

namespace dl {
namespace {

using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

std::shared_ptr<DeepLake> NewLake(storage::StoragePtr store = nullptr) {
  if (!store) store = std::make_shared<storage::MemoryStore>();
  auto lake = DeepLake::Open(store);
  EXPECT_TRUE(lake.ok()) << lake.status();
  return *lake;
}

Status FillClassified(DeepLake& lake, int n) {
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  DL_RETURN_IF_ERROR(lake.CreateTensor("images", img).status());
  TensorOptions lbl;
  lbl.htype = "class_label";
  DL_RETURN_IF_ERROR(lake.CreateTensor("labels", lbl).status());
  for (int i = 0; i < n; ++i) {
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{8, 8, 3},
                           ByteBuffer(192, static_cast<uint8_t>(i)));
    row["labels"] = Sample::Scalar(i % 4, DType::kInt32);
    DL_RETURN_IF_ERROR(lake.Append(row));
  }
  return lake.Flush();
}

/// Counts every store call the lake makes. Thread-safe, as every provider
/// must be: a commit's flush calls it from several threads.
class CallCountingStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  Result<Slice> Get(std::string_view key) override {
    ++calls;
    ++gets;
    return ForwardingStore::Get(key);
  }
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                         uint64_t length) override {
    ++calls;
    ++gets;
    return ForwardingStore::GetRange(key, offset, length);
  }
  Status Put(std::string_view key, ByteView value) override {
    ++calls;
    return ForwardingStore::Put(key, value);
  }
  Status PutDurable(std::string_view key, ByteView value) override {
    ++calls;
    return ForwardingStore::PutDurable(key, value);
  }
  Status Delete(std::string_view key) override {
    ++calls;
    return ForwardingStore::Delete(key);
  }
  Result<bool> Exists(std::string_view key) override {
    ++calls;
    return ForwardingStore::Exists(key);
  }
  Result<uint64_t> SizeOf(std::string_view key) override {
    ++calls;
    return ForwardingStore::SizeOf(key);
  }
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override {
    ++calls;
    return ForwardingStore::ListPrefix(prefix);
  }
  std::string name() const override { return "call-counting"; }
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> gets{0};  // Get and GetRange
};

TEST(DeepLakeTest, CommitAndSnapshotOpenCallCounts) {
  // The lakebench ingest schema: jpeg images, labels, index and the hidden
  // _sample_id, 32 rows a round.
  auto store = std::make_shared<CallCountingStore>(
      std::make_shared<storage::MemoryStore>());
  auto lake = NewLake(store);
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "jpeg";
  ASSERT_TRUE(lake->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(lake->CreateTensor("labels", lbl).ok());
  TensorOptions idx;
  idx.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("index", idx).ok());
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 7);
  auto append_round = [&](uint64_t first) {
    for (uint64_t i = first; i < first + 32; ++i) {
      sim::SampleSpec spec = gen.Generate(i);
      std::map<std::string, Sample> row;
      row["images"] = Sample(DType::kUInt8, TensorShape(spec.shape),
                             std::move(spec.pixels));
      row["labels"] = Sample::Scalar(static_cast<int32_t>(spec.label),
                                     DType::kInt32);
      row["index"] = Sample::Scalar(static_cast<int64_t>(i), DType::kInt64);
      ASSERT_TRUE(lake->Append(row).ok());
    }
  };
  append_round(0);
  auto first = lake->Commit("first");
  ASSERT_TRUE(first.ok()) << first.status();
  append_round(32);
  store->calls = 0;
  store->gets = 0;
  ASSERT_TRUE(lake->Commit("round").ok());
  // One flush wave (a chunk, then an index, per tensor) and the 5 version
  // manifests; the seal diffs the open tensors, so nothing is read back
  // (was 41 calls: a rewritten dataset meta, 18 diff reads, 9 reopen reads).
  EXPECT_LE(store->calls.load(), 13u);
  EXPECT_EQ(store->gets.load(), 0u);
  store->calls = 0;
  auto at = lake->At(*first);
  ASSERT_TRUE(at.ok()) << at.status();
  EXPECT_LE(store->calls.load(), 9u);  // dataset meta + 2 per tensor
  EXPECT_EQ((*at)->NumRows(), 32u);
}

TEST(DeepLakeTest, OpenCreatesAndReopens) {
  auto store = std::make_shared<storage::MemoryStore>();
  {
    auto lake = NewLake(store);
    ASSERT_TRUE(FillClassified(*lake, 10).ok());
    ASSERT_TRUE(lake->Flush().ok());
  }
  auto lake = DeepLake::Open(store);
  ASSERT_TRUE(lake.ok()) << lake.status();
  EXPECT_EQ((*lake)->NumRows(), 10u);
  // create_if_missing=false on an empty root fails.
  DeepLake::OpenOptions opts;
  opts.create_if_missing = false;
  auto missing =
      DeepLake::Open(std::make_shared<storage::MemoryStore>(), opts);
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(DeepLakeTest, FullMlLoop) {
  auto lake = NewLake();
  ASSERT_TRUE(FillClassified(*lake, 24).ok());

  // Commit, branch, modify, time-travel query (Fig. 2 loop).
  auto v1 = lake->Commit("raw data");
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(lake->Checkout("relabel", /*create=*/true).ok());
  auto labels = lake->dataset().GetTensor("labels").MoveValue();
  ASSERT_TRUE(labels->Update(0, Sample::Scalar(9, DType::kInt32)).ok());
  ASSERT_TRUE(lake->Flush().ok());
  ASSERT_TRUE(lake->Commit("fixed label 0").ok());

  // Query on the branch sees the fix; VERSION query sees the original.
  auto now = lake->Query("SELECT * FROM ds WHERE labels = 9");
  ASSERT_TRUE(now.ok()) << now.status();
  EXPECT_EQ(now->size(), 1u);
  auto old = lake->Query("SELECT * FROM ds VERSION '" + *v1 +
                         "' WHERE labels = 9");
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->size(), 0u);

  // Merge back to main with theirs policy.
  ASSERT_TRUE(lake->Checkout("main").ok());
  auto stats = lake->Merge("relabel", version::MergePolicy::kTheirs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(lake->ReadRow(0)->at("labels").AsInt(), 9);

  // Stream a filtered view.
  auto view = lake->Query("SELECT * FROM ds WHERE labels = 2");
  ASSERT_TRUE(view.ok());
  stream::DataloaderOptions lopts;
  lopts.batch_size = 4;
  auto loader = lake->Dataloader(*view, lopts);
  stream::Batch batch;
  uint64_t seen = 0;
  while (*loader->Next(&batch)) seen += batch.size;
  EXPECT_EQ(seen, view->size());

  // Log reflects history.
  auto log = lake->Log();
  EXPECT_GE(log.size(), 2u);
}

TEST(DeepLakeTest, WithoutVersionControl) {
  DeepLake::OpenOptions opts;
  opts.with_version_control = false;
  auto lake = DeepLake::Open(std::make_shared<storage::MemoryStore>(), opts);
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(FillClassified(**lake, 8).ok());
  EXPECT_TRUE((*lake)->Commit("x").status().IsFailedPrecondition());
  EXPECT_TRUE((*lake)->Checkout("b").IsFailedPrecondition());
  EXPECT_FALSE((*lake)->has_version_control());
  // Queries still work.
  auto view = (*lake)->Query("SELECT * FROM ds WHERE labels = 1");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->size(), 2u);
}

TEST(DeepLakeTest, MaterializeViewViaFacade) {
  auto lake = NewLake();
  ASSERT_TRUE(FillClassified(*lake, 16).ok());
  auto view = lake->Query(
      "SELECT images AS thumbs, labels FROM ds WHERE labels = 3");
  ASSERT_TRUE(view.ok());
  auto target = std::make_shared<storage::MemoryStore>();
  auto mat = lake->Materialize(*view, target);
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_EQ((*mat)->NumRows(), 4u);
}

TEST(DeepLakeTest, BranchLockThroughFacade) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto lake = NewLake(store);
  auto lock = lake->LockBranch("trainer-1");
  ASSERT_TRUE(lock.ok()) << lock.status();
  // A second writer against the same storage is rejected on this branch.
  auto other = DeepLake::Open(store);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE((*other)->LockBranch("trainer-2").status().IsAborted());
  ASSERT_TRUE((*lock)->Release().ok());
  EXPECT_TRUE((*other)->LockBranch("trainer-2").ok());
  // No version control -> no locks.
  DeepLake::OpenOptions opts;
  opts.with_version_control = false;
  auto plain = DeepLake::Open(std::make_shared<storage::MemoryStore>(), opts);
  EXPECT_TRUE(
      (*plain)->LockBranch("x").status().IsFailedPrecondition());
}

TEST(DeepLakeTest, RenderThroughFacade) {
  auto lake = NewLake();
  ASSERT_TRUE(FillClassified(*lake, 2).ok());
  viz::RenderOptions ropts;
  ropts.viewport_width = 16;
  ropts.viewport_height = 16;
  ropts.use_pyramid = false;
  viz::RenderReport report;
  auto fb = lake->Render(1, ropts, &report);
  ASSERT_TRUE(fb.ok()) << fb.status();
  EXPECT_EQ(fb->width, 16u);
  EXPECT_EQ(report.primary_tensor, "images");
  // Pixel value equals the row's fill byte.
  EXPECT_EQ(fb->PixelAt(8, 8)[0], 1);
}

TEST(DeepLakeTest, ExplainQueryThroughFacade) {
  auto lake = NewLake();
  ASSERT_TRUE(FillClassified(*lake, 40).ok());
  auto profile =
      lake->ExplainQuery("SELECT labels FROM ds WHERE labels = 3 LIMIT 5");
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_TRUE(profile->analyzed);
  ASSERT_FALSE(profile->operators.empty());
  bool saw_filter = false;
  for (const auto& op : profile->operators) {
    if (op.op == "filter") {
      saw_filter = true;
      EXPECT_EQ(op.rows_in, 40u);
      EXPECT_EQ(op.rows_out, 10u);  // labels cycle 0..3
    }
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_GE(profile->total_us, profile->OperatorWallSumUs() -
                                   profile->parse_us);
  // Malformed queries surface the parse error, not a profile.
  EXPECT_FALSE(lake->ExplainQuery("SELECT FROM").ok());
}

TEST(DeepLakeTest, FlightRecorderLifecycle) {
  auto lake = NewLake();
  ASSERT_TRUE(FillClassified(*lake, 30).ok());
  // Stop before any start: null timeline, no crash.
  EXPECT_TRUE(lake->StopFlightRecorder().is_null());
  ASSERT_TRUE(lake->StartFlightRecorder().ok());
  ASSERT_NE(lake->flight_recorder(), nullptr);
  EXPECT_TRUE(lake->flight_recorder()->running());
  // Starting twice while running is refused.
  EXPECT_TRUE(lake->StartFlightRecorder().IsFailedPrecondition());
  // Generate some watched traffic (tql.queries is in the default watch set).
  ASSERT_TRUE(lake->Query("SELECT * FROM ds WHERE labels = 1").ok());
  Json timeline = lake->StopFlightRecorder();
  ASSERT_FALSE(timeline.is_null());
  ASSERT_TRUE(timeline.Has("samples"));
  const auto& samples = timeline.Get("samples").array();
  ASSERT_GE(samples.size(), 1u);  // Stop() always takes a final sample
  double queries = 0;
  for (const Json& s : samples) {
    ASSERT_TRUE(s.Has("tql_queries"));
    ASSERT_TRUE(s.Has("gpu_utilization"));
    ASSERT_TRUE(s.Has("queued_rows"));
    queries += s.Get("tql_queries").as_number();
  }
  EXPECT_GE(queries, 1.0);
  // The recorder is reusable after Stop.
  EXPECT_TRUE(lake->StartFlightRecorder().ok());
  EXPECT_FALSE(lake->StopFlightRecorder().is_null());
}

}  // namespace
}  // namespace dl
