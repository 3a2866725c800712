// Ingestion tests: parallel compute pipelines (one-to-one, one-to-many,
// stacked stages, ordering, errors), CSV/JSONL connectors, and the
// precompressed image-file fast path.

#include <gtest/gtest.h>

#include <atomic>

#include "ingest/connectors.h"
#include "ingest/pipeline.h"
#include "sim/workload.h"
#include "storage/storage.h"
#include "tsf/dataset.h"

namespace dl::ingest {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;

std::shared_ptr<Dataset> NewDataset(const char* tensor = "value") {
  auto ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
                .MoveValue();
  TensorOptions opts;
  opts.dtype = "int32";
  EXPECT_TRUE(ds->CreateTensor(tensor, opts).ok());
  return ds;
}

GeneratorSource CountingSource(int n) {
  auto counter = std::make_shared<int>(0);
  return GeneratorSource([counter, n](Row* row) -> Result<bool> {
    if (*counter >= n) return false;
    (*row)["value"] = Sample::Scalar((*counter)++, DType::kInt32);
    return true;
  });
}

TEST(PipelineTest, PassthroughCopiesInOrder) {
  auto ds = NewDataset();
  Pipeline pipeline;
  auto source = CountingSource(100);
  PipelineOptions opts;
  opts.num_workers = 4;
  opts.rows_per_task = 7;
  auto stats = pipeline.Run(source, *ds, opts);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_in, 100u);
  EXPECT_EQ(stats->rows_out, 100u);
  ASSERT_EQ(ds->NumRows(), 100u);
  // Input order is preserved despite parallel workers.
  auto tensor = ds->GetTensor("value").MoveValue();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tensor->Read(i)->AsInt(), i);
  }
}

TEST(PipelineTest, OneToOneTransform) {
  auto ds = NewDataset();
  Pipeline pipeline;
  pipeline.Then([](const Row& in, std::vector<Row>* out) {
    Row r = in;
    r["value"] = Sample::Scalar(in.at("value").AsInt() * 10, DType::kInt32);
    out->push_back(std::move(r));
    return Status::OK();
  });
  auto source = CountingSource(20);
  auto stats = pipeline.Run(source, *ds);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto tensor = ds->GetTensor("value").MoveValue();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(tensor->Read(i)->AsInt(), i * 10);
}

TEST(PipelineTest, OneToManyAndFilter) {
  auto ds = NewDataset();
  Pipeline pipeline;
  // Even inputs are dropped; odd inputs are duplicated.
  pipeline.Then([](const Row& in, std::vector<Row>* out) {
    int v = static_cast<int>(in.at("value").AsInt());
    if (v % 2 == 0) return Status::OK();
    out->push_back(in);
    out->push_back(in);
    return Status::OK();
  });
  auto source = CountingSource(10);
  auto stats = pipeline.Run(source, *ds);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_in, 10u);
  EXPECT_EQ(stats->rows_out, 10u);  // 5 odds x 2
  auto tensor = ds->GetTensor("value").MoveValue();
  EXPECT_EQ(tensor->Read(0)->AsInt(), 1);
  EXPECT_EQ(tensor->Read(1)->AsInt(), 1);
  EXPECT_EQ(tensor->Read(2)->AsInt(), 3);
}

TEST(PipelineTest, StackedStagesCompose) {
  auto ds = NewDataset();
  Pipeline pipeline;
  pipeline
      .Then([](const Row& in, std::vector<Row>* out) {
        Row r = in;
        r["value"] =
            Sample::Scalar(in.at("value").AsInt() + 1, DType::kInt32);
        out->push_back(std::move(r));
        return Status::OK();
      })
      .Then([](const Row& in, std::vector<Row>* out) {
        Row r = in;
        r["value"] =
            Sample::Scalar(in.at("value").AsInt() * 3, DType::kInt32);
        out->push_back(std::move(r));
        return Status::OK();
      });
  auto source = CountingSource(5);
  ASSERT_TRUE(pipeline.Run(source, *ds).ok());
  auto tensor = ds->GetTensor("value").MoveValue();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tensor->Read(i)->AsInt(), (i + 1) * 3);
  }
}

TEST(PipelineTest, TransformErrorAborts) {
  auto ds = NewDataset();
  Pipeline pipeline;
  pipeline.Then([](const Row& in, std::vector<Row>* out) -> Status {
    if (in.at("value").AsInt() == 7) {
      return Status::InvalidArgument("poison row");
    }
    out->push_back(in);
    return Status::OK();
  });
  auto source = CountingSource(50);
  auto stats = pipeline.Run(source, *ds);
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

TEST(PipelineTest, DatasetSourceRoundTrip) {
  auto src_ds = NewDataset();
  {
    Pipeline fill;
    auto gen = CountingSource(12);
    ASSERT_TRUE(fill.Run(gen, *src_ds).ok());
  }
  auto dst_ds = NewDataset();
  DatasetSource source(src_ds);
  Pipeline copy;
  auto stats = copy.Run(source, *dst_ds);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(dst_ds->NumRows(), 12u);
  EXPECT_EQ(dst_ds->GetTensor("value").MoveValue()->Read(11)->AsInt(), 11);
}

// ---------------------------------------------------------------------------
// Connectors
// ---------------------------------------------------------------------------

TEST(CsvConnectorTest, ParsesTypesAndQuotes) {
  auto store = std::make_shared<storage::MemoryStore>();
  std::string csv =
      "id,label,caption\n"
      "0,3,\"a cat, sitting\"\n"
      "1,5,plain text\n"
      "2,7,\"quote \"\" inside\"\n";
  ASSERT_TRUE(store->Put("meta.csv", ByteView(csv)).ok());
  auto conn = CsvConnector::Open(store, "meta.csv");
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ(conn->num_rows(), 3u);
  EXPECT_EQ(conn->columns(),
            (std::vector<std::string>{"id", "label", "caption"}));
  Row row;
  ASSERT_TRUE(*conn->Next(&row));
  EXPECT_EQ(row["id"].AsInt(), 0);
  EXPECT_EQ(row["label"].AsInt(), 3);
  EXPECT_EQ(row["caption"].AsString(), "a cat, sitting");
  ASSERT_TRUE(*conn->Next(&row));
  ASSERT_TRUE(*conn->Next(&row));
  EXPECT_EQ(row["caption"].AsString(), "quote \" inside");
  EXPECT_FALSE(*conn->Next(&row));
}

TEST(CsvConnectorTest, Malformed) {
  auto store = std::make_shared<storage::MemoryStore>();
  ASSERT_TRUE(store->Put("bad.csv", ByteView(std::string_view(
                                        "a,b\n1,2,3\n"))).ok());
  EXPECT_TRUE(CsvConnector::Open(store, "bad.csv").status().IsCorruption());
  ASSERT_TRUE(store->Put("empty.csv", ByteView()).ok());
  EXPECT_FALSE(CsvConnector::Open(store, "empty.csv").ok());
  EXPECT_TRUE(CsvConnector::Open(store, "missing.csv").status().IsNotFound());
}

TEST(JsonlConnectorTest, ParsesMixedTypes) {
  auto store = std::make_shared<storage::MemoryStore>();
  std::string jsonl =
      R"({"id": 0, "score": 0.5, "name": "alpha", "flag": true, "vec": [1, 2, 3]})"
      "\n"
      R"({"id": 1, "score": 0.9, "name": "beta", "flag": false, "vec": [4, 5, 6]})"
      "\n";
  ASSERT_TRUE(store->Put("rows.jsonl", ByteView(jsonl)).ok());
  auto conn = JsonlConnector::Open(store, "rows.jsonl");
  ASSERT_TRUE(conn.ok()) << conn.status();
  EXPECT_EQ(conn->num_rows(), 2u);
  Row row;
  ASSERT_TRUE(*conn->Next(&row));
  EXPECT_EQ(row["id"].AsInt(), 0);
  EXPECT_DOUBLE_EQ(row["score"].AsDouble(), 0.5);
  EXPECT_EQ(row["name"].AsString(), "alpha");
  EXPECT_EQ(row["flag"].AsInt(), 1);
  EXPECT_EQ(row["vec"].shape, (tsf::TensorShape{3}));
}

TEST(JsonlConnectorTest, CsvToDatasetEndToEnd) {
  // The §5 flow: labels from a tabular source into a class_label tensor.
  auto store = std::make_shared<storage::MemoryStore>();
  std::string csv = "label\n4\n2\n9\n";
  ASSERT_TRUE(store->Put("labels.csv", ByteView(csv)).ok());
  auto conn = CsvConnector::Open(store, "labels.csv").MoveValue();

  auto ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
                .MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("label", lbl).ok());
  Pipeline pipeline;
  pipeline.Then([](const Row& in, std::vector<Row>* out) {
    Row r;
    r["label"] = Sample::Scalar(in.at("label").AsInt(), DType::kInt32);
    out->push_back(std::move(r));
    return Status::OK();
  });
  auto stats = pipeline.Run(conn, *ds);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto tensor = ds->GetTensor("label").MoveValue();
  EXPECT_EQ(tensor->Read(0)->AsInt(), 4);
  EXPECT_EQ(tensor->Read(2)->AsInt(), 9);
}

TEST(IngestImageFilesTest, FastPathSkipsReencode) {
  // Write "JPEG files" (lossy frames) into a bucket, ingest into a tensor
  // with matching compression, verify bytes decode identically.
  auto bucket = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 5);
  std::vector<std::string> keys;
  std::vector<ByteBuffer> originals;
  for (int i = 0; i < 6; ++i) {
    auto sample = gen.Generate(i);
    ByteBuffer file = sim::EncodeAsImageFile(sample, 75);
    std::string key = "raw/" + std::to_string(i) + ".img";
    ASSERT_TRUE(bucket->Put(key, ByteView(file)).ok());
    keys.push_back(key);
    originals.push_back(std::move(file));
  }

  auto ds_store = std::make_shared<storage::MemoryStore>();
  tsf::TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "jpeg";  // alias of image_lossy
  auto tensor = tsf::Tensor::Create(ds_store, "images", opts).MoveValue();
  auto count = IngestImageFiles(bucket, keys, *tensor);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 6u);
  EXPECT_EQ(tensor->NumSamples(), 6u);
  for (int i = 0; i < 6; ++i) {
    auto s = tensor->Read(i);
    ASSERT_TRUE(s.ok()) << s.status();
    EXPECT_EQ(s->shape, (tsf::TensorShape{250, 250, 3}));
    // Decoding the stored bytes equals decoding the original file.
    auto direct = sim::DecodeImageFile(ByteView(originals[i]));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(s->data, *direct);
  }
}

/// Every chunk object of `t`, in chunk-encoder order.
std::vector<ByteBuffer> ChunkObjects(tsf::Tensor& t) {
  std::vector<ByteBuffer> out;
  for (const tsf::ChunkEntry& e : t.chunk_encoder().entries()) {
    Slice obj = t.store()->Get(t.ChunkKey(e.chunk_id)).MoveValue();
    out.emplace_back(obj.data(), obj.data() + obj.size());
  }
  return out;
}

TEST(IngestImageFilesTest, FilesPackLikeAppendedPixels) {
  // Files encoded at the tensor's quality are the frames Append would
  // write for their decoded pixels, so both paths write the same chunk
  // objects at the same boundaries.
  constexpr int kQuality = 95;
  auto bucket = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 9);
  std::vector<std::string> keys;
  for (int i = 0; i < 7; ++i) {
    ByteBuffer file = sim::EncodeAsImageFile(gen.Generate(i), kQuality);
    keys.push_back("raw/" + std::to_string(i) + ".img");
    ASSERT_TRUE(bucket->Put(keys.back(), ByteView(file)).ok());
  }
  auto store = std::make_shared<storage::MemoryStore>();
  tsf::TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "jpeg";
  opts.quality = kQuality;
  opts.max_chunk_bytes = 400'000;  // several chunks
  auto ingested = tsf::Tensor::Create(store, "ingested", opts).MoveValue();
  auto appended = tsf::Tensor::Create(store, "appended", opts).MoveValue();
  ASSERT_TRUE(IngestImageFiles(bucket, keys, *ingested).ok());
  for (const std::string& key : keys) {
    Slice file = bucket->Get(key).MoveValue();
    auto pixels = sim::DecodeImageFile(ByteView(file));
    ASSERT_TRUE(pixels.ok()) << pixels.status();
    ASSERT_TRUE(appended
                    ->Append(Sample(DType::kUInt8,
                                    tsf::TensorShape{250, 250, 3},
                                    std::move(*pixels)))
                    .ok());
  }
  ASSERT_TRUE(appended->Flush().ok());

  const std::vector<ByteBuffer> from_files = ChunkObjects(*ingested);
  EXPECT_GT(from_files.size(), 1u);
  EXPECT_TRUE(from_files == ChunkObjects(*appended));
}

TEST(IngestImageFilesTest, BadFileIsNamedAndNotAppended) {
  auto bucket = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 3);
  ByteBuffer good = sim::EncodeAsImageFile(gen.Generate(0), 75);
  ASSERT_TRUE(bucket->Put("raw/good.img", ByteView(good)).ok());
  const ByteBuffer bad = {'n', 'o', 't', ' ', 'a', 'n', ' ', 'i', 'm', 'g'};
  ASSERT_TRUE(bucket->Put("raw/bad.img", ByteView(bad)).ok());

  tsf::TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "jpeg";
  auto tensor = tsf::Tensor::Create(std::make_shared<storage::MemoryStore>(),
                                    "images", opts)
                    .MoveValue();
  auto count = IngestImageFiles(bucket, {"raw/good.img", "raw/bad.img"},
                                *tensor);
  ASSERT_FALSE(count.ok());
  EXPECT_NE(count.status().ToString().find("raw/bad.img"), std::string::npos)
      << count.status();
  EXPECT_EQ(tensor->NumSamples(), 1u);
}

TEST(IngestImageFilesTest, RequiresMatchingCompression) {
  auto bucket = std::make_shared<storage::MemoryStore>();
  auto ds_store = std::make_shared<storage::MemoryStore>();
  tsf::TensorOptions opts;
  opts.sample_compression = "none";
  auto tensor = tsf::Tensor::Create(ds_store, "t", opts).MoveValue();
  EXPECT_TRUE(IngestImageFiles(bucket, {}, *tensor)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace dl::ingest
