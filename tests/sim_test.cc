// Tests for the simulation substrate: network model delays, GPU model
// utilization accounting, workload determinism.

#include <gtest/gtest.h>

#include <thread>

#include "sim/gpu_model.h"
#include "sim/network_model.h"
#include "sim/workload.h"
#include "storage/storage.h"
#include "util/clock.h"

namespace dl::sim {
namespace {

TEST(NetworkModelTest, TransferTimeScalesWithBytes) {
  NetworkModel m = NetworkModel::S3SameRegion();
  int64_t small = m.TransferMicros(1024);
  int64_t big = m.TransferMicros(8 << 20);
  EXPECT_GT(big, small);
  // Latency floor: even a 1-byte read pays the TTFB.
  EXPECT_GE(small, m.first_byte_latency_us);
}

TEST(NetworkModelTest, TimeScaleDividesSleeps) {
  NetworkModel m = NetworkModel::S3SameRegion();
  int64_t full = m.TransferMicros(1 << 20);
  m.time_scale = 10.0;
  EXPECT_NEAR(static_cast<double>(m.TransferMicros(1 << 20)),
              static_cast<double>(full) / 10.0, full * 0.01);
}

TEST(NetworkModelTest, ProfilesAreOrderedSanely) {
  auto local = NetworkModel::LocalFs();
  auto s3 = NetworkModel::S3SameRegion();
  auto xr = NetworkModel::S3CrossRegion();
  auto minio = NetworkModel::MinioLan();
  EXPECT_LT(local.first_byte_latency_us, minio.first_byte_latency_us);
  EXPECT_LT(minio.first_byte_latency_us, s3.first_byte_latency_us);
  EXPECT_LT(s3.first_byte_latency_us, xr.first_byte_latency_us);
  EXPECT_LT(minio.max_concurrent_requests, s3.max_concurrent_requests);
}

TEST(NetworkModelTest, LinkCapSplitsBandwidthAmongStreams) {
  NetworkModel m;
  m.bandwidth_bytes_per_sec = 100e6;
  m.aggregate_bandwidth_bytes_per_sec = 200e6;
  // Up to two streams each get their own 100 MB/s; beyond that they share
  // the 200 MB/s link evenly.
  EXPECT_EQ(m.TransferMicros(1'000'000, 1), 10'000);
  EXPECT_EQ(m.TransferMicros(1'000'000, 2), 10'000);
  EXPECT_EQ(m.TransferMicros(1'000'000, 4), 20'000);
  EXPECT_EQ(m.TransferMicros(1'000'000, 8), 40'000);
}

TEST(NetworkModelTest, S3LinkCapLeavesFewStreamsUnchanged) {
  // 10 Gbit/s shared by 3 streams is 417 MB/s each, above the 95 (45)
  // MB/s per stream: today's loader concurrency costs what it did before
  // the link cap existed.
  for (NetworkModel capped :
       {NetworkModel::S3SameRegion(), NetworkModel::S3CrossRegion()}) {
    SCOPED_TRACE(capped.label);
    EXPECT_EQ(capped.aggregate_bandwidth_bytes_per_sec, 1.25e9);
    NetworkModel uncapped = capped;
    uncapped.aggregate_bandwidth_bytes_per_sec = 0;
    for (int streams = 1; streams <= 3; ++streams) {
      EXPECT_EQ(capped.TransferMicros(8 << 20, streams),
                uncapped.TransferMicros(8 << 20));
    }
  }
  EXPECT_EQ(NetworkModel::LocalFs().aggregate_bandwidth_bytes_per_sec, 0);
}

TEST(SimulatedObjectStoreTest, ConcurrentTransfersShareTheLinkCap) {
  constexpr int kStreams = 4;
  constexpr size_t kBytes = 100'000;
  constexpr double kLinkBytesPerSec = 1e6;
  auto base = std::make_shared<storage::MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(ByteBuffer(kBytes, 7))).ok());
  NetworkModel m;
  m.first_byte_latency_us = 0;
  m.bandwidth_bytes_per_sec = 1e9;
  m.aggregate_bandwidth_bytes_per_sec = kLinkBytesPerSec;
  SimulatedObjectStore store(base, m);
  Stopwatch sw;
  std::vector<std::thread> ts;
  for (int i = 0; i < kStreams; ++i) {
    ts.emplace_back([&store] { ASSERT_TRUE(store.Get("k").ok()); });
  }
  for (auto& t : ts) t.join();
  // Each request streams at the link rate split among those in flight
  // when it starts, so the four of them cannot move 400 KB faster than
  // the 1 MB/s link.
  EXPECT_GE(sw.ElapsedMicros(),
            static_cast<int64_t>(kStreams * kBytes / kLinkBytesPerSec * 1e6));
}

TEST(SimulatedObjectStoreTest, InjectsLatency) {
  auto base = std::make_shared<storage::MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  NetworkModel m;
  m.label = "test";
  m.first_byte_latency_us = 20000;  // 20ms
  m.bandwidth_bytes_per_sec = 1e9;
  SimulatedObjectStore store(base, m);
  Stopwatch sw;
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_GE(sw.ElapsedMicros(), 18000);
}

TEST(SimulatedObjectStoreTest, ConcurrencyCapSerializesRequests) {
  auto base = std::make_shared<storage::MemoryStore>();
  ASSERT_TRUE(base->Put("k", ByteView(std::string_view("v"))).ok());
  NetworkModel m;
  m.first_byte_latency_us = 30000;
  m.max_concurrent_requests = 1;
  auto capped = std::make_shared<SimulatedObjectStore>(base, m);
  m.max_concurrent_requests = 8;
  auto wide = std::make_shared<SimulatedObjectStore>(base, m);

  auto run = [](std::shared_ptr<SimulatedObjectStore> s) {
    Stopwatch sw;
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i) {
      ts.emplace_back([&s] { ASSERT_TRUE(s->Get("k").ok()); });
    }
    for (auto& t : ts) t.join();
    return sw.ElapsedMicros();
  };
  int64_t capped_us = run(capped);
  int64_t wide_us = run(wide);
  // 4 serialized 30ms requests ~120ms vs ~30ms parallel.
  EXPECT_GT(capped_us, wide_us * 2);
}

TEST(GpuModelTest, FullFeedIsNearFullUtilization) {
  GpuModel gpu(/*samples_per_sec=*/100000);
  for (int i = 0; i < 20; ++i) gpu.TrainStep(1000);  // back-to-back
  EXPECT_GT(gpu.Utilization(), 0.9);
  EXPECT_EQ(gpu.samples_processed(), 20000u);
  EXPECT_EQ(gpu.steps(), 20u);
}

TEST(GpuModelTest, StarvedGpuShowsIdle) {
  GpuModel gpu(/*samples_per_sec=*/1000000);
  for (int i = 0; i < 5; ++i) {
    gpu.TrainStep(1000);       // 1ms compute
    SleepMicros(5000);         // 5ms waiting for data
  }
  EXPECT_LT(gpu.Utilization(), 0.5);
  EXPECT_GT(gpu.idle_micros(), gpu.busy_micros());
}

TEST(GpuModelTest, UtilizationSeriesCoversSpan) {
  GpuModel gpu(100000);
  for (int i = 0; i < 10; ++i) gpu.TrainStep(500);
  auto series = gpu.UtilizationSeries(10000);
  ASSERT_FALSE(series.empty());
  for (double u : series) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(WorkloadTest, DeterministicPerIndex) {
  WorkloadGenerator gen(WorkloadGenerator::ImageNetLike(), 7);
  auto a = gen.Generate(13);
  auto b = gen.Generate(13);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.pixels, b.pixels);
  EXPECT_EQ(a.label, b.label);
  auto c = gen.Generate(14);
  EXPECT_NE(a.pixels, c.pixels);
}

TEST(WorkloadTest, ShapeOfMatchesGenerate) {
  WorkloadGenerator gen(WorkloadGenerator::ImageNetLike(), 3);
  for (uint64_t i = 0; i < 20; ++i) {
    auto s = gen.Generate(i);
    EXPECT_EQ(gen.ShapeOf(i), s.shape);
    EXPECT_EQ(gen.RawBytesOf(i), s.pixels.size());
    EXPECT_GE(s.shape[0], 200u);
    EXPECT_LE(s.shape[0], 500u);
  }
}

TEST(WorkloadTest, FixedShapeProfiles) {
  WorkloadGenerator ffhq(WorkloadGenerator::FfhqLike(256), 1);
  auto s = ffhq.Generate(0);
  EXPECT_EQ(s.shape, (std::vector<uint64_t>{256, 256, 3}));
  WorkloadGenerator small(WorkloadGenerator::SmallJpeg(), 1);
  EXPECT_EQ(small.Generate(5).shape, (std::vector<uint64_t>{250, 250, 3}));
}

TEST(WorkloadTest, LaionPairsHaveCaptions) {
  WorkloadGenerator gen(WorkloadGenerator::LaionPair(), 2);
  auto s = gen.Generate(42);
  EXPECT_FALSE(s.caption.empty());
  EXPECT_NE(s.caption.find("#42"), std::string::npos);
}

TEST(WorkloadTest, ImageFileRoundTripIsClose) {
  WorkloadGenerator gen(WorkloadGenerator::SmallJpeg(), 4);
  auto s = gen.Generate(0);
  ByteBuffer file = EncodeAsImageFile(s, 75);
  ASSERT_FALSE(file.empty());
  // Compresses meaningfully relative to raw.
  EXPECT_LT(file.size(), s.pixels.size());
  auto back = DecodeImageFile(ByteView(file));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), s.pixels.size());
  int max_err = 0;
  for (size_t i = 0; i < s.pixels.size(); ++i) {
    max_err = std::max(max_err, std::abs(int((*back)[i]) - int(s.pixels[i])));
  }
  EXPECT_LE(max_err, 2);  // quality 75 -> shift 1
}

}  // namespace
}  // namespace dl::sim
