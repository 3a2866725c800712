// Cross-module integration tests: full ML-loop scenarios spanning storage
// chains, version control, ingestion, TQL, streaming, materialization and
// visualization together — the paper's Fig. 2 loop exercised end to end.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/deeplake.h"
#include "ingest/connectors.h"
#include "ingest/pipeline.h"
#include "sim/network_model.h"
#include "sim/workload.h"
#include "storage/storage.h"
#include "viz/visualizer.h"

namespace dl {
namespace {

using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

TEST(IntegrationTest, IngestQueryMaterializeStreamOverVersionedPosix) {
  // The full §5 lifecycle on a real filesystem with version control.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("dl_integration_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  auto posix = std::make_shared<storage::PosixStore>(dir);
  auto lake = DeepLake::Open(posix);
  ASSERT_TRUE(lake.ok()) << lake.status();

  // 1. Ingest via the parallel pipeline from a generator source.
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "image";  // lossless for exact round trip
  ASSERT_TRUE((*lake)->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE((*lake)->CreateTensor("labels", lbl).ok());
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::TinyMask(), 5);
  int cursor = 0;
  ingest::GeneratorSource source([&](ingest::Row* row) -> Result<bool> {
    if (cursor >= 40) return false;
    auto s = gen.Generate(cursor);
    (*row)["images"] = Sample(DType::kUInt8, TensorShape(s.shape),
                              std::move(s.pixels));
    (*row)["labels"] = Sample::Scalar(cursor % 4, DType::kInt32);
    ++cursor;
    return true;
  });
  ingest::Pipeline pipeline;
  auto stats = pipeline.Run(source, (*lake)->dataset());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_out, 40u);
  auto v1 = (*lake)->Commit("ingested 40 rows");
  ASSERT_TRUE(v1.ok()) << v1.status();

  // 2. Query a balanced subset and stream it.
  auto view = (*lake)->Query(
      "SELECT * FROM ds WHERE labels = 1 OR labels = 2 ARRANGE BY labels");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 20u);
  stream::DataloaderOptions lopts;
  lopts.batch_size = 4;
  lopts.num_workers = 2;
  auto loader = (*lake)->Dataloader(*view, lopts);
  stream::Batch batch;
  uint64_t streamed = 0;
  int balanced_windows = 0;
  while (*loader->Next(&batch)) {
    streamed += batch.size;
    // ARRANGE BY interleaves the two classes.
    std::set<int64_t> classes;
    for (const auto& s : batch.columns.at("labels")) {
      classes.insert(s.AsInt());
    }
    if (classes.size() == 2) ++balanced_windows;
  }
  EXPECT_EQ(streamed, 20u);
  EXPECT_GT(balanced_windows, 3);

  // 3. Materialize the view to a second posix dataset and verify lineage.
  auto target =
      std::make_shared<storage::PosixStore>(dir + "_materialized");
  auto mat = (*lake)->Materialize(*view, target);
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_EQ((*mat)->NumRows(), 20u);
  bool has_lineage = false;
  const Json& prov = (*mat)->meta().Get("provenance");
  for (size_t i = 0; i < prov.size(); ++i) {
    if (prov[i].Get("event").as_string().find("materialized") !=
        std::string::npos) {
      has_lineage = true;
    }
  }
  EXPECT_TRUE(has_lineage);

  // 4. Reopen everything cold (fresh processes in real life).
  auto lake2 = DeepLake::Open(std::make_shared<storage::PosixStore>(dir));
  ASSERT_TRUE(lake2.ok()) << lake2.status();
  EXPECT_EQ((*lake2)->NumRows(), 40u);
  EXPECT_GE((*lake2)->Log().size(), 2u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_materialized");
}

TEST(IntegrationTest, AnnotatorLoopWithBranchesAndViz) {
  // Fig. 2's inspection loop: annotators fix labels on a branch while a
  // rendering session inspects rows; merge brings fixes back.
  auto lake = *DeepLake::Open(std::make_shared<storage::MemoryStore>());
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  (void)lake->CreateTensor("photo", img);
  TensorOptions box;
  box.htype = "bbox";
  (void)lake->CreateTensor("boxes", box);
  TensorOptions lbl;
  lbl.htype = "class_label";
  (void)lake->CreateTensor("labels", lbl);
  for (int i = 0; i < 6; ++i) {
    std::map<std::string, Sample> row;
    row["photo"] = Sample(DType::kUInt8, TensorShape{64, 64, 3},
                          ByteBuffer(64 * 64 * 3, static_cast<uint8_t>(40 + i)));
    float b[4] = {8, 8, 24, 24};
    ByteBuffer bb(16);
    memcpy(bb.data(), b, 16);
    row["boxes"] = Sample(DType::kFloat32, TensorShape{1, 4}, std::move(bb));
    row["labels"] = Sample::Scalar(0, DType::kInt32);
    ASSERT_TRUE(lake->Append(row).ok());
  }
  ASSERT_TRUE(lake->Commit("raw annotations").ok());

  // Annotator branch: relabel rows 2 and 4.
  ASSERT_TRUE(lake->Checkout("annotator-7", true).ok());
  auto labels = lake->dataset().GetTensor("labels").MoveValue();
  ASSERT_TRUE(labels->Update(2, Sample::Scalar(1, DType::kInt32)).ok());
  ASSERT_TRUE(labels->Update(4, Sample::Scalar(1, DType::kInt32)).ok());
  ASSERT_TRUE(lake->Flush().ok());
  ASSERT_TRUE(lake->Commit("relabeled 2 and 4").ok());

  // Meanwhile rendering on main still shows old labels.
  ASSERT_TRUE(lake->Checkout("main").ok());
  viz::RenderOptions ropts;
  ropts.viewport_width = 64;
  ropts.viewport_height = 64;
  ropts.use_pyramid = false;
  viz::RenderReport report;
  auto fb = lake->Render(2, ropts, &report);
  ASSERT_TRUE(fb.ok()) << fb.status();
  EXPECT_EQ(report.boxes_drawn, 1u);
  ASSERT_FALSE(report.label_texts.empty());
  EXPECT_NE(report.label_texts[0].find(": 0"), std::string::npos);

  // Merge, re-render: the fix is visible.
  auto stats = lake->Merge("annotator-7", version::MergePolicy::kTheirs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->conflicts, 2u);
  report = {};
  fb = lake->Render(2, ropts, &report);
  ASSERT_TRUE(fb.ok());
  EXPECT_NE(report.label_texts[0].find(": 1"), std::string::npos);
}

TEST(IntegrationTest, CsvMetadataJoinIngest) {
  // §5: "labels stored on a relational database ... extracted from a SQL
  // query or CSV table" — CSV metadata drives ingestion of image files
  // through the precompressed fast path.
  auto bucket = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 9);
  std::string csv = "file,label\n";
  for (int i = 0; i < 8; ++i) {
    auto s = gen.Generate(i);
    std::string key = "raw/" + std::to_string(i) + ".img";
    ASSERT_TRUE(
        bucket->Put(key, ByteView(sim::EncodeAsImageFile(s, 75))).ok());
    csv += key + "," + std::to_string(i % 3) + "\n";
  }
  ASSERT_TRUE(bucket->Put("meta.csv", ByteView(csv)).ok());

  auto lake = *DeepLake::Open(std::make_shared<storage::MemoryStore>());
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "jpeg";
  (void)lake->CreateTensor("images", img);
  TensorOptions lbl;
  lbl.htype = "class_label";
  (void)lake->CreateTensor("labels", lbl);

  auto conn = ingest::CsvConnector::Open(bucket, "meta.csv");
  ASSERT_TRUE(conn.ok()) << conn.status();
  ingest::Pipeline pipeline;
  pipeline.Then([&](const ingest::Row& in,
                    std::vector<ingest::Row>* out) -> Status {
    DL_ASSIGN_OR_RETURN(Slice file,
                        bucket->Get(in.at("file").AsString()));
    DL_ASSIGN_OR_RETURN(auto info,
                        compress::PeekImageFrameInfo(ByteView(file)));
    ingest::Row row;
    // The file is already in the tensor's codec: stage the compressed
    // frame itself; a custom append below would use the fast path. Here
    // we decode once for simplicity of the pipeline contract.
    DL_ASSIGN_OR_RETURN(ByteBuffer pixels, sim::DecodeImageFile(ByteView(file)));
    row["images"] = Sample(DType::kUInt8,
                           TensorShape{info.height, info.width,
                                       info.channels},
                           std::move(pixels));
    row["labels"] =
        Sample::Scalar(in.at("label").AsDouble(), DType::kInt32);
    out->push_back(std::move(row));
    return Status::OK();
  });
  auto stats = pipeline.Run(*conn, lake->dataset());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_out, 8u);
  EXPECT_EQ(lake->ReadRow(5)->at("labels").AsInt(), 2);
}

TEST(IntegrationTest, StreamingThroughLruCachedSimulatedS3) {
  // The §3.6 provider chain: LRU cache over a simulated S3 store. The
  // second epoch is served from cache and issues no S3 requests.
  auto base = std::make_shared<storage::MemoryStore>();
  {
    DeepLake::OpenOptions oopts;
    oopts.with_version_control = false;  // dataset lives at the root
    auto lake = *DeepLake::Open(base, oopts);
    TensorOptions img;
    img.htype = "image";
    img.sample_compression = "none";
    (void)lake->CreateTensor("images", img);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          lake->Append({{"images",
                         Sample(DType::kUInt8, TensorShape{24, 24, 3},
                                ByteBuffer(24 * 24 * 3,
                                           static_cast<uint8_t>(i)))}})
              .ok());
    }
    ASSERT_TRUE(lake->Flush().ok());
  }
  sim::NetworkModel model = sim::NetworkModel::S3SameRegion();
  model.time_scale = 50;  // fast test
  auto s3 = std::make_shared<storage::InstrumentedStore>(
      std::make_shared<sim::SimulatedObjectStore>(base, model), "s3-reads");
  auto cached = std::make_shared<storage::LruCacheStore>(s3, 64 << 20);
  auto ds = tsf::Dataset::Open(cached);
  ASSERT_TRUE(ds.ok()) << ds.status();

  auto epoch = [&]() {
    stream::DataloaderOptions opts;
    opts.batch_size = 10;
    opts.num_workers = 2;
    stream::Dataloader loader(*ds, opts);
    stream::Batch batch;
    uint64_t n = 0;
    while (*loader.Next(&batch)) n += batch.size;
    return n;
  };
  EXPECT_EQ(epoch(), 30u);
  uint64_t s3_reads_after_first = s3->gets();
  EXPECT_EQ(epoch(), 30u);
  EXPECT_EQ(s3->gets(), s3_reads_after_first);
  EXPECT_GT(cached->hits(), 0u);
}

TEST(IntegrationTest, FaultInjectionSurfacesEverywhere) {
  // Every layer must propagate storage faults as Status, never crash or
  // silently corrupt: exercise dataset ops, queries and streaming against
  // an unreliable store until each path has seen an error.
  auto mem = std::make_shared<storage::MemoryStore>();
  {
    auto lake = *DeepLake::Open(mem);
    TensorOptions lbl;
    lbl.htype = "class_label";
    (void)lake->CreateTensor("labels", lbl);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          lake->Append({{"labels", Sample::Scalar(i, DType::kInt32)}}).ok());
    }
    ASSERT_TRUE(lake->Flush().ok());
    ASSERT_TRUE(lake->Commit("data").ok());
  }
  for (uint64_t every : {2u, 3u, 7u}) {
    auto faulty = std::make_shared<storage::FaultInjectionStore>(mem, every);
    // Any of these may fail — they must fail *cleanly*.
    auto lake = DeepLake::Open(faulty);
    if (!lake.ok()) continue;
    auto view = (*lake)->Query("SELECT * FROM ds WHERE labels % 2 = 0");
    if (!view.ok()) continue;
    stream::DataloaderOptions opts;
    opts.batch_size = 8;
    auto loader = (*lake)->Dataloader(*view, opts);
    stream::Batch batch;
    while (true) {
      auto more = loader->Next(&batch);
      if (!more.ok() || !*more) break;
    }
  }
  // Reaching here without a crash is the assertion; data is intact:
  auto lake = DeepLake::Open(mem);
  ASSERT_TRUE(lake.ok());
  EXPECT_EQ((*lake)->NumRows(), 50u);
}

TEST(IntegrationTest, TiledAerialImageryWorkflow) {
  // §3.4's aerial-imagery case: huge samples tile across chunks; region
  // reads and the visualizer fetch only what the viewport needs.
  auto lake = *DeepLake::Open(std::make_shared<storage::MemoryStore>());
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  img.max_chunk_bytes = 128 * 1024;
  (void)lake->CreateTensor("aerial", img);
  // A 512x512x3 "satellite tile" (786KB > 128KB -> tiled).
  ByteBuffer pixels(512 * 512 * 3);
  for (size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<uint8_t>((i / 3) % 251);
  }
  // The test compares against `pixels` below, so hand the sample a copy.
  ASSERT_TRUE(lake->Append({{"aerial",
                             Sample(DType::kUInt8,
                                    TensorShape{512, 512, 3},
                                    Slice::CopyOf(ByteView(pixels)))}})
                  .ok());
  ASSERT_TRUE(lake->Flush().ok());
  auto aerial = lake->dataset().GetTensor("aerial").MoveValue();
  ASSERT_GT(aerial->tile_encoder().num_tiled_samples(), 0u);

  // Viewport render fetches a sub-region through the tile path.
  viz::RenderOptions ropts;
  ropts.viewport_width = 64;
  ropts.viewport_height = 64;
  ropts.src_x = 100;
  ropts.src_y = 200;
  ropts.src_w = 64;
  ropts.src_h = 64;
  ropts.use_pyramid = false;
  viz::RenderReport report;
  auto fb = lake->Render(0, ropts, &report);
  ASSERT_TRUE(fb.ok()) << fb.status();
  // Pixel (0,0) of the viewport = source (200, 100).
  EXPECT_EQ(fb->PixelAt(0, 0)[0], pixels[(200 * 512 + 100) * 3]);

  // Streaming a dataset with tiled samples works too.
  stream::DataloaderOptions opts;
  opts.batch_size = 1;
  auto loader = lake->Dataloader(opts);
  stream::Batch batch;
  ASSERT_TRUE(*loader->Next(&batch));
  EXPECT_EQ(batch.columns.at("aerial")[0].data, pixels);
}

}  // namespace
}  // namespace dl
