// Dataloader tests: ordering, completeness, shuffling and its
// reproducibility, view streaming, transforms, collation, prefetch
// behaviour over slow stores, error propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "obs/metrics.h"
#include "sim/network_model.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tql/executor.h"
#include "tsf/chunk.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace dl::stream {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

/// Dataset where labels[i] == i, images are small uniform tensors whose
/// first byte equals i % 256 (so rows are verifiable). Compressed images
/// get pseudo-random pixels after the first byte, so their frames do not
/// shrink to nothing and `chunk_bytes` still cuts several chunks.
std::shared_ptr<Dataset> MakeDataset(int n, storage::StoragePtr store,
                                     uint64_t chunk_bytes = 1 << 16,
                                     const std::string& compression = "none") {
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = compression;
  img.max_chunk_bytes = chunk_bytes;
  EXPECT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    ByteBuffer pixels(16 * 16 * 3, static_cast<uint8_t>(i % 256));
    if (compression != "none") {
      uint64_t x = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull + 1;
      for (size_t j = 1; j < pixels.size(); ++j) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pixels[j] = static_cast<uint8_t>(x);
      }
    }
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{16, 16, 3},
                           std::move(pixels));
    row["labels"] = Sample::Scalar(i, DType::kInt32);
    EXPECT_TRUE(ds->Append(row).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

std::vector<int> DrainLabels(Dataloader& loader) {
  std::vector<int> labels;
  Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    for (const auto& s : batch.columns.at("labels")) {
      labels.push_back(static_cast<int>(s.AsInt()));
    }
  }
  return labels;
}

TEST(DataloaderTest, SequentialOrderAndCompleteness) {
  auto ds = MakeDataset(100, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 7;
  opts.num_workers = 4;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(labels[i], i);
  EXPECT_EQ(loader.stats().rows_delivered, 100u);
  EXPECT_EQ(loader.stats().batches_delivered, 15u);  // 14 full + 1 of 2
}

TEST(DataloaderTest, RowsCarryMatchingCells) {
  auto ds = MakeDataset(50, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 8;
  Dataloader loader(ds, opts);
  Batch batch;
  int row = 0;
  while (*loader.Next(&batch)) {
    for (uint64_t i = 0; i < batch.size; ++i) {
      int label = static_cast<int>(batch.columns.at("labels")[i].AsInt());
      EXPECT_EQ(batch.columns.at("images")[i].data[0],
                static_cast<uint8_t>(label % 256));
      ++row;
    }
  }
  EXPECT_EQ(row, 50);
}

TEST(DataloaderTest, DropLastSkipsPartialBatch) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 4;
  opts.drop_last = true;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  EXPECT_EQ(labels.size(), 8u);
}

TEST(DataloaderTest, ShuffleIsAPermutationAndShuffled) {
  auto ds = MakeDataset(200, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/8 * 1024);
  DataloaderOptions opts;
  opts.batch_size = 16;
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 64;
  opts.seed = 123;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 200u);
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), 200u);  // a permutation
  // Not the identity: mean displacement is large.
  double displacement = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    displacement += std::abs(static_cast<double>(labels[i]) - i);
  }
  displacement /= labels.size();
  EXPECT_GT(displacement, 10.0);
}

/// Delays every Get by a pseudo-random 0–1 ms, so work units finish in a
/// different order on every run.
class JitterStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  std::string name() const override { return "jitter(" + base_->name() + ")"; }

 protected:
  Status Admit(storage::FaultOp op) override {
    if (op == storage::kFaultGet) {
      uint64_t n = calls_.fetch_add(1) * 0x9e3779b97f4a7c15ull;
      SleepMicros(static_cast<int64_t>(n >> 54));
    }
    return Status::OK();
  }

 private:
  std::atomic<uint64_t> calls_{0};
};

/// (num_workers, prefetch_units)
class ShuffleSeedTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(ShuffleSeedTest, SameSeedSameOrderOtherSeedOtherOrder) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(100, mem, 8 * 1024);
  auto ds = Dataset::Open(std::make_shared<JitterStore>(mem)).MoveValue();
  auto run = [&](uint64_t seed) {
    DataloaderOptions opts;
    opts.batch_size = 10;
    opts.shuffle = true;
    opts.shuffle_buffer_rows = 32;
    opts.seed = seed;
    opts.num_workers = std::get<0>(GetParam());
    opts.prefetch_units = std::get<1>(GetParam());
    Dataloader loader(ds, opts);
    return DrainLabels(loader);
  };
  auto a = run(1);
  auto b = run(1);
  auto c = run(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const auto* order : {&a, &b, &c}) {
    std::set<int> unique(order->begin(), order->end());
    EXPECT_EQ(order->size(), 100u);
    EXPECT_EQ(unique.size(), 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByPrefetch, ShuffleSeedTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}, size_t{8}),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

/// Delivered label orders recorded from the reservoir-driven loader that
/// preceded the precomputed epoch plan. The plan must reproduce them for
/// every worker count and prefetch depth.
const std::vector<int> kGoldenShuffled100 = {
    50, 52, 51, 56, 53, 55, 54, 11, 12, 16, 15, 1,  3,  13, 58, 4,  0,
    70, 75, 5,  72, 73, 82, 81, 77, 8,  7,  80, 84, 9,  17, 23, 22, 27,
    87, 78, 83, 20, 89, 44, 6,  24, 57, 88, 48, 49, 41, 85, 79, 42, 86,
    14, 36, 26, 71, 95, 96, 46, 34, 99, 91, 62, 30, 25, 10, 98, 39, 74,
    19, 90, 45, 43, 35, 93, 59, 18, 68, 76, 97, 65, 69, 60, 67, 61, 38,
    29, 64, 2,  37, 32, 94, 28, 47, 66, 21, 33, 63, 31, 40, 92};
const std::vector<int> kGoldenSparseView = {
    39, 9, 36, 18, 48, 33, 15, 30, 6, 54, 51, 42, 0, 21, 3, 57, 12, 24, 45, 27};

/// (num_workers, prefetch_units)
class GoldenOrderTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  DataloaderOptions Options(uint64_t batch_size) const {
    DataloaderOptions opts;
    opts.batch_size = batch_size;
    opts.num_workers = std::get<0>(GetParam());
    opts.prefetch_units = std::get<1>(GetParam());
    return opts;
  }
};

TEST_P(GoldenOrderTest, InOrder) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(100, mem, 8 * 1024);
  auto ds = Dataset::Open(std::make_shared<JitterStore>(mem)).MoveValue();
  Dataloader loader(ds, Options(7));
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(DrainLabels(loader), expected);
}

TEST_P(GoldenOrderTest, Shuffled) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(100, mem, 8 * 1024);
  auto ds = Dataset::Open(std::make_shared<JitterStore>(mem)).MoveValue();
  DataloaderOptions opts = Options(10);
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 32;
  opts.seed = 1;
  Dataloader loader(ds, opts);
  EXPECT_EQ(DrainLabels(loader), kGoldenShuffled100);
}

TEST_P(GoldenOrderTest, ShuffledSparseView) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(60, mem, 4 * 1024);
  auto ds = Dataset::Open(std::make_shared<JitterStore>(mem)).MoveValue();
  auto view = tql::RunQuery(
      ds, "SELECT * FROM ds WHERE labels % 3 = 0 ORDER BY labels DESC");
  ASSERT_TRUE(view.ok()) << view.status();
  DataloaderOptions opts = Options(5);
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 512;
  opts.prefetch_units = 1;
  Dataloader loader(ds, *view, opts);
  EXPECT_EQ(DrainLabels(loader), kGoldenSparseView);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByPrefetch, GoldenOrderTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}, size_t{8}),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

double QueuedRows() {
  return obs::MetricsRegistry::Global().GetGauge("loader.queued_rows")->Value();
}

TEST(DataloaderTest, QueuedRowsReturnsToStartAfterEpochAndTeardown) {
  auto ds = MakeDataset(100, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/4 * 1024);
  const double start = QueuedRows();
  DataloaderOptions opts;
  opts.batch_size = 8;
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 16;
  {
    Dataloader loader(ds, opts);
    EXPECT_EQ(DrainLabels(loader).size(), 100u);
    EXPECT_EQ(QueuedRows(), start);
  }
  EXPECT_EQ(QueuedRows(), start);
  {
    // Destroyed mid-epoch, with decoded rows still in flight.
    Dataloader loader(ds, opts);
    Batch batch;
    ASSERT_TRUE(*loader.Next(&batch));
    SleepMicros(20000);
  }
  EXPECT_EQ(QueuedRows(), start);
}

TEST(DataloaderTest, ShuffledDropLastDeliversWholeBatchesOfDistinctRows) {
  auto ds = MakeDataset(100, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/8 * 1024);
  DataloaderOptions opts;
  opts.batch_size = 16;
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 32;
  opts.drop_last = true;
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  EXPECT_EQ(labels.size(), 96u);  // floor(100 / 16) * 16
  EXPECT_EQ(std::set<int>(labels.begin(), labels.end()).size(), 96u);
  EXPECT_EQ(loader.stats().batches_delivered, 6u);
}

TEST(DataloaderTest, StreamsQueryViewInViewOrder) {
  // Small chunks: the sparse view spans many work units.
  auto ds = MakeDataset(60, std::make_shared<storage::MemoryStore>(),
                        /*chunk_bytes=*/4 * 1024);
  auto view = tql::RunQuery(
      ds, "SELECT * FROM ds WHERE labels % 3 = 0 ORDER BY labels DESC");
  ASSERT_TRUE(view.ok()) << view.status();
  DataloaderOptions opts;
  opts.batch_size = 5;
  Dataloader loader(ds, *view, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 20u);
  EXPECT_EQ(labels.front(), 57);
  EXPECT_EQ(labels.back(), 0);
  for (size_t i = 1; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i - 1] - labels[i], 3);
  }

  // Shuffled, with a reservoir larger than the view and a one-unit
  // prefetch window: the visit-order fill must still drain every unit.
  opts.shuffle = true;
  opts.shuffle_buffer_rows = 512;
  opts.prefetch_units = 1;
  Dataloader shuffled(ds, *view, opts);
  std::vector<int> got = DrainLabels(shuffled);
  std::sort(got.begin(), got.end());
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(got, labels);
}

TEST(DataloaderTest, TransformRunsPerRow) {
  auto ds = MakeDataset(30, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 10;
  opts.transform = [](Row& row) {
    // Double the label; downsize the image to 2x2x3.
    int v = static_cast<int>(row["labels"].AsInt());
    row["labels"] = Sample::Scalar(v * 2, DType::kInt32);
    row["images"] =
        Sample(DType::kUInt8, TensorShape{2, 2, 3},
               ByteBuffer(12, row["images"].data.empty()
                                  ? 0
                                  : row["images"].data[0]));
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(labels[i], 2 * i);
}

TEST(DataloaderTest, TransformedRowsStackIntoOneBatchBuffer) {
  auto ds = MakeDataset(30, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 10;
  opts.transform = [](Row& row) {
    uint8_t v = row["images"].data[0];
    row["images"] = Sample(DType::kUInt8, TensorShape{2, 2, 3},
                           ByteBuffer(12, static_cast<uint8_t>(v + 1)));
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  Batch batch;
  int row = 0;
  while (*loader.Next(&batch)) {
    auto stacked = batch.Stacked("images");
    ASSERT_TRUE(stacked.ok()) << stacked.status();
    EXPECT_EQ(stacked->shape, (TensorShape{10, 2, 2, 3}));
    EXPECT_EQ(stacked->data.owner(), batch.columns.at("images")[0].data.owner());
    for (uint64_t i = 0; i < batch.size; ++i, ++row) {
      EXPECT_EQ(stacked->data[i * 12], static_cast<uint8_t>(row % 256 + 1));
    }
  }
  EXPECT_EQ(row, 30);
}

TEST(DataloaderTest, TransformErrorSurfacesAndStops) {
  auto ds = MakeDataset(40, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 8;
  opts.transform = [](Row& row) {
    if (row["labels"].AsInt() == 13) {
      return Status::InvalidArgument("bad sample 13");
    }
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  Batch batch;
  Status seen;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      seen = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(seen.IsInvalidArgument());
}

TEST(DataloaderTest, StackedCollation) {
  auto ds = MakeDataset(12, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 12;
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  auto stacked = batch.Stacked("images");
  ASSERT_TRUE(stacked.ok()) << stacked.status();
  EXPECT_EQ(stacked->shape, (TensorShape{12, 16, 16, 3}));
  EXPECT_EQ(stacked->data.size(), 12u * 16 * 16 * 3);
  // Batch-major layout: row i's block leads with its label byte.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(stacked->data[i * 16 * 16 * 3], static_cast<uint8_t>(i));
  }
  auto labels = batch.Stacked("labels");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(labels->shape, (TensorShape{12}));
}

TEST(DataloaderTest, StackedRejectsRagged) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  ASSERT_TRUE(ds->CreateTensor("images", img).ok());
  for (int i = 0; i < 4; ++i) {
    uint64_t side = 8 + i;
    ASSERT_TRUE(ds->Append({{"images",
                             Sample(DType::kUInt8,
                                    TensorShape{side, side, 3},
                                    ByteBuffer(side * side * 3, 1))}})
                    .ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  DataloaderOptions opts;
  opts.batch_size = 4;
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  EXPECT_TRUE(batch.Stacked("images").status().IsFailedPrecondition());
}

TEST(DataloaderTest, PrefetchHidesStorageLatency) {
  // Same dataset behind a slow simulated store: with parallel workers +
  // prefetch, total wall time approaches (num_chunks/workers) * latency,
  // far below serial chunk-by-chunk latency.
  auto mem = std::make_shared<storage::MemoryStore>();
  auto ds_local = MakeDataset(64, mem, /*chunk_bytes=*/4 * 1024);
  sim::NetworkModel model;
  model.label = "slow";
  model.first_byte_latency_us = 12000;
  model.bandwidth_bytes_per_sec = 1e9;
  model.max_concurrent_requests = 32;
  auto slow = std::make_shared<sim::SimulatedObjectStore>(mem, model);
  auto ds = Dataset::Open(slow).MoveValue();

  auto run = [&](size_t workers, size_t prefetch) {
    DataloaderOptions opts;
    opts.batch_size = 16;
    opts.num_workers = workers;
    opts.prefetch_units = prefetch;
    Dataloader loader(ds, opts);
    Stopwatch sw;
    std::vector<int> labels = DrainLabels(loader);
    EXPECT_EQ(labels.size(), 64u);
    return sw.ElapsedMicros();
  };
  int64_t serial = run(1, 1);
  int64_t parallel = run(8, 16);
  EXPECT_LT(parallel * 2, serial);
}

TEST(DataloaderTest, StorageErrorsPropagate) {
  auto mem = std::make_shared<storage::MemoryStore>();
  auto ds_writer = MakeDataset(40, mem, 4 * 1024);
  auto faulty = std::make_shared<storage::FaultInjectionStore>(mem, 5);
  auto ds = Dataset::Open(faulty);
  if (!ds.ok()) return;  // open itself may hit the fault — fine
  DataloaderOptions opts;
  opts.batch_size = 8;
  Dataloader loader(*ds, opts);
  Batch batch;
  bool saw_error = false;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      EXPECT_TRUE(more.status().IsIOError());
      saw_error = true;
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(saw_error);
}

TEST(DataloaderTest, EmptyDatasetEndsImmediately) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  ASSERT_TRUE(ds->CreateTensor("x", {}).ok());
  ASSERT_TRUE(ds->Flush().ok());
  DataloaderOptions opts;
  Dataloader loader(ds, opts);
  Batch batch;
  auto more = loader.Next(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(DataloaderTest, SelectedTensorsOnly) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.batch_size = 10;
  opts.tensors = {"labels"};
  Dataloader loader(ds, opts);
  Batch batch;
  ASSERT_TRUE(*loader.Next(&batch));
  EXPECT_EQ(batch.columns.count("images"), 0u);
  EXPECT_EQ(batch.columns.at("labels").size(), 10u);
}

TEST(DataloaderTest, UnknownTensorIsTheFirstNextError) {
  auto ds = MakeDataset(10, std::make_shared<storage::MemoryStore>());
  DataloaderOptions opts;
  opts.tensors = {"labels", "nope"};
  Dataloader loader(ds, opts);
  Batch batch;
  EXPECT_TRUE(loader.Next(&batch).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// The epoch plan's scheduler: fetch tasks per chunk, decode tasks per row.
// ---------------------------------------------------------------------------

/// Counts Gets per key; fails Gets of `fail_key` with an IOError and
/// delays Gets of `slow_key` by `slow_us`.
class KeyedStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  std::string name() const override { return "keyed(" + base_->name() + ")"; }

  Result<Slice> Get(std::string_view key) override {
    {
      MutexLock lock(mu_);
      ++gets_[std::string(key)];
    }
    if (key == fail_key) return Status::IOError("injected Get failure");
    if (key == slow_key) {
      slow_started.fetch_add(1);
      SleepMicros(slow_us);
      slow_returned.fetch_add(1);
    }
    return ForwardingStore::Get(key);
  }

  /// Gets of chunk objects since the last call, by key.
  std::map<std::string, int> TakeChunkGets() {
    MutexLock lock(mu_);
    std::map<std::string, int> out;
    for (const auto& [key, n] : gets_) {
      if (key.find("/chunks/") != std::string::npos) out[key] = n;
    }
    gets_.clear();
    return out;
  }

  std::string fail_key;
  std::string slow_key;
  int64_t slow_us = 0;
  std::atomic<int> slow_started{0};   // Gets of slow_key begun
  std::atomic<int> slow_returned{0};  // ... and done sleeping

 private:
  Mutex mu_{"test.keyed_store.mu"};
  std::map<std::string, int> gets_ DL_GUARDED_BY(mu_);
};

std::string ChunkKeyOf(Dataset& ds, const std::string& tensor, uint64_t row) {
  tsf::Tensor* t = ds.GetTensor(tensor).MoveValue();
  return t->ChunkKey(t->chunk_encoder().Find(row)->chunk_id);
}

TEST(DataloaderSchedulerTest, OneWorkerOneFetchBatchOfOneStaysLive) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(50, mem, 2 * 1024);
  auto ds = Dataset::Open(std::make_shared<JitterStore>(mem)).MoveValue();
  for (bool shuffle : {false, true}) {
    for (bool drop_last : {false, true}) {
      for (uint64_t batch_size : {uint64_t{1}, uint64_t{3}}) {
        DataloaderOptions opts;
        opts.num_workers = 1;
        opts.prefetch_units = 1;
        opts.batch_size = batch_size;
        opts.shuffle = shuffle;
        opts.shuffle_buffer_rows = 8;
        opts.drop_last = drop_last;
        Dataloader loader(ds, opts);
        std::vector<int> labels = DrainLabels(loader);
        const size_t expected = drop_last ? 50 / batch_size * batch_size : 50;
        ASSERT_EQ(labels.size(), expected)
            << "shuffle=" << shuffle << " drop_last=" << drop_last
            << " batch=" << batch_size;
        EXPECT_EQ(std::set<int>(labels.begin(), labels.end()).size(),
                  expected);
        if (!shuffle) {
          for (size_t i = 0; i < labels.size(); ++i) {
            EXPECT_EQ(labels[i], static_cast<int>(i));
          }
        }
      }
    }
  }
}

TEST(DataloaderSchedulerTest, BatchesSmallerThanThePoolStillRunInParallel) {
  // With batch_size 1, decoding only the consumer's next row would run one
  // row at a time; workers may run one row each past it instead.
  auto ds = MakeDataset(24, std::make_shared<storage::MemoryStore>());
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  DataloaderOptions opts;
  opts.batch_size = 1;
  opts.num_workers = 4;
  opts.transform = [&](Row&) {
    const int now = running.fetch_add(1) + 1;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    SleepMicros(10000);
    running.fetch_sub(1);
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  std::vector<int> labels = DrainLabels(loader);
  ASSERT_EQ(labels.size(), 24u);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], static_cast<int>(i));
  }
  EXPECT_GE(most.load(), 2);
}

TEST(DataloaderSchedulerTest, FailedChunkGetIsTheFirstNextError) {
  auto mem = std::make_shared<storage::MemoryStore>();
  auto writer = MakeDataset(40, mem, 2 * 1024);
  auto store = std::make_shared<KeyedStore>(mem);
  store->fail_key = ChunkKeyOf(*writer, "images", 20);
  auto ds = Dataset::Open(store).MoveValue();
  DataloaderOptions opts;
  opts.batch_size = 4;
  opts.num_workers = 2;
  Dataloader loader(ds, opts);
  Batch batch;
  Status first;
  uint64_t rows = 0;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) {
      first = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "the epoch ended without the injected failure";
    rows += batch.size;
  }
  EXPECT_TRUE(first.IsIOError()) << first;
  EXPECT_LE(rows, 20u);
  // The error is sticky: every later Next() returns it too.
  EXPECT_TRUE(loader.Next(&batch).status().IsIOError());
}

TEST(DataloaderSchedulerTest, CorruptFrameTheConsumerDecodesIsTheFirstError) {
  auto mem = std::make_shared<storage::MemoryStore>();
  auto writer = MakeDataset(40, mem, 2 * 1024, "png");
  // Corrupt the frame of row 0: its first byte is the image codec's magic.
  const std::string key = ChunkKeyOf(*writer, "images", 0);
  ByteBuffer bytes = mem->Get(key)->ToBuffer();
  auto header = tsf::ChunkHeader::Parse(ByteView(bytes));
  ASSERT_TRUE(header.ok()) << header.status();
  bytes[header->payload_offset] ^= 0xff;
  ASSERT_TRUE(mem->Put(key, ByteView(bytes)).ok());

  // One worker: it fetches the first images chunk and the labels chunk,
  // then, with no fetch in flight, the next images chunk, whose Get is
  // slow. Next() is called only once that Get has begun, so every row of
  // the first batch, row 0 included, is left to the consumer.
  auto store = std::make_shared<KeyedStore>(mem);
  tsf::Tensor* images = writer->GetTensor("images").MoveValue();
  uint64_t first_chunk_rows = 0;
  while (first_chunk_rows < 40 &&
         images->chunk_encoder().Find(first_chunk_rows)->chunk_ordinal == 0) {
    ++first_chunk_rows;
  }
  ASSERT_GT(first_chunk_rows, 1u);
  ASSERT_LT(first_chunk_rows, 40u);
  store->slow_key = ChunkKeyOf(*writer, "images", first_chunk_rows);
  store->slow_us = 300000;
  auto ds = Dataset::Open(store).MoveValue();
  DataloaderOptions opts;
  opts.batch_size = first_chunk_rows;
  opts.num_workers = 1;
  auto loader = std::make_unique<Dataloader>(ds, opts);
  const int64_t deadline = NowMicros() + 10'000'000;
  while (store->slow_started.load() == 0 && NowMicros() < deadline) {
    SleepMicros(100);
  }
  ASSERT_EQ(store->slow_started.load(), 1);
  Batch batch;
  auto more = loader->Next(&batch);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption()) << more.status();
  EXPECT_GT(loader->stats().consumer_micros, 0);
  // The worker is still inside the slow Get: the destructor joins it, so
  // the Get has returned by the time the loader is gone.
  EXPECT_EQ(store->slow_returned.load(), 0);
  loader.reset();
  EXPECT_EQ(store->slow_returned.load(), 1);
}

TEST(DataloaderSchedulerTest, EachChunkIsFetchedOncePerEpoch) {
  auto mem = std::make_shared<storage::MemoryStore>();
  MakeDataset(120, mem, 2 * 1024, "png");
  auto store = std::make_shared<KeyedStore>(mem);
  auto ds = Dataset::Open(store).MoveValue();
  size_t chunks = 0;
  for (const std::string& name : ds->TensorNames()) {
    chunks += ds->GetTensor(name).MoveValue()->chunk_encoder().num_chunks();
  }
  ASSERT_GT(chunks, 3u);
  store->TakeChunkGets();
  for (bool shuffle : {false, true}) {
    DataloaderOptions opts;
    opts.batch_size = 7;
    opts.shuffle = shuffle;
    opts.shuffle_buffer_rows = 32;
    opts.num_workers = 3;
    opts.prefetch_units = 2;
    Dataloader loader(ds, opts);
    EXPECT_EQ(DrainLabels(loader).size(), 120u);
    std::map<std::string, int> gets = store->TakeChunkGets();
    EXPECT_EQ(gets.size(), chunks) << "shuffle=" << shuffle;
    for (const auto& [key, n] : gets) {
      EXPECT_EQ(n, 1) << key << " shuffle=" << shuffle;
    }
    EXPECT_EQ(loader.stats().fetches, chunks);
  }
}

TEST(DataloaderSchedulerTest, StallPlusConsumerDecodeIsTheTimeInNext) {
  auto ds = MakeDataset(48, std::make_shared<storage::MemoryStore>(),
                        2 * 1024);
  DataloaderOptions opts;
  opts.batch_size = 8;
  opts.num_workers = 1;
  opts.transform = [](Row&) {
    SleepMicros(2000);
    return Status::OK();
  };
  Dataloader loader(ds, opts);
  Batch batch;
  int64_t in_next = 0;
  int calls = 0;
  while (true) {
    int64_t t0 = NowMicros();
    auto more = loader.Next(&batch);
    in_next += NowMicros() - t0;
    ++calls;
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
  }
  DataloaderStats stats = loader.stats();
  // The consumer decoded rows while it waited, and that time is not stall.
  EXPECT_GT(stats.consumer_micros, 0);
  EXPECT_GT(stats.stall_micros, 0);
  EXPECT_GE(stats.transform_micros, stats.consumer_micros / 2);
  const int64_t accounted = stats.stall_micros + stats.consumer_micros;
  EXPECT_LE(accounted, in_next);
  // What is left is each call's own bookkeeping outside the timed
  // intervals (the lock, the batch hand-off), far below one 2 ms row even
  // under a sanitizer.
  EXPECT_LE(in_next - accounted, 300 * calls)
      << "in Next " << in_next << " us, stall " << stats.stall_micros
      << " us, consumer " << stats.consumer_micros << " us";
}

// ---------------------------------------------------------------------------
// Decoding straight into the batch
// ---------------------------------------------------------------------------

class ZeroCopyStackTest : public ::testing::TestWithParam<std::string> {};

// A compressed column decodes into one batch-major buffer, so Stacked() is
// a view of it. An uncompressed column is delivered as subslices of its
// chunks, copying nothing, and a batch that spans chunks (every batch here:
// a 4 KiB chunk holds a few 768-byte images) is copied once by Stacked().
TEST_P(ZeroCopyStackTest, StackedEqualsPerRowReads) {
  const bool compressed = GetParam() != "none";
  auto ds = MakeDataset(40, std::make_shared<storage::MemoryStore>(),
                        4 * 1024, GetParam());
  tsf::Tensor* images = ds->GetTensor("images").MoveValue();
  DataloaderOptions opts;
  opts.batch_size = 16;
  opts.num_workers = 3;
  opts.tensors = {"images"};
  Dataloader loader(ds, opts);
  Batch batch;
  uint64_t row = 0;
  uint64_t delivered_copies = 0;
  uint64_t copied = TotalBytesCopied();
  while (*loader.Next(&batch)) {
    delivered_copies += TotalBytesCopied() - copied;
    copied = TotalBytesCopied();
    auto stacked = batch.Stacked("images");
    ASSERT_TRUE(stacked.ok()) << stacked.status();
    const auto& column = batch.columns.at("images");
    for (const Sample& s : column) {
      EXPECT_EQ(s.data.owner() == stacked->data.owner(), compressed);
    }
    EXPECT_EQ(TotalBytesCopied() - copied,
              compressed ? 0 : stacked->data.size());
    ByteBuffer expected;
    for (uint64_t i = 0; i < batch.size; ++i) {
      auto read = images->Read(row + i);
      ASSERT_TRUE(read.ok()) << read.status();
      AppendBytes(expected, read->data.view());
    }
    EXPECT_EQ(stacked->data, expected);
    row += batch.size;
    copied = TotalBytesCopied();
  }
  EXPECT_EQ(row, 40u);
  EXPECT_EQ(delivered_copies, 0u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, ZeroCopyStackTest,
                         ::testing::Values("none", "jpeg"));

TEST(DataloaderTest, JpegEpochCopiesNothing) {
  auto ds = MakeDataset(64, std::make_shared<storage::MemoryStore>(),
                        4 * 1024, "jpeg");
  DataloaderOptions opts;
  opts.batch_size = 16;
  opts.tensors = {"images"};
  Dataloader loader(ds, opts);
  Batch batch;
  uint64_t rows = 0;
  while (*loader.Next(&batch)) {
    ASSERT_TRUE(batch.Stacked("images").ok());
    rows += batch.size;
  }
  EXPECT_EQ(rows, 64u);
  EXPECT_EQ(loader.stats().bytes_copied, 0u);
}

}  // namespace
}  // namespace dl::stream
