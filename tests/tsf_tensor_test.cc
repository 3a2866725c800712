// End-to-end tests for Tensor and Dataset over real storage providers:
// append/read/flush/reopen, compression modes, tiling, updates, sparse
// writes, re-chunking, rows, groups, links.

#include <gtest/gtest.h>

#include <memory>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "tsf/tensor.h"
#include "util/envelope.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "version/fsck.h"
#include "version/version_control.h"

namespace dl::tsf {
namespace {

storage::StoragePtr Mem() { return std::make_shared<storage::MemoryStore>(); }

Sample Image(uint64_t h, uint64_t w, uint64_t seed) {
  Rng rng(seed);
  ByteBuffer data(h * w * 3);
  uint32_t noise = static_cast<uint32_t>(rng.Next()) | 1;
  for (size_t i = 0; i < data.size(); ++i) {
    if ((i & 15) == 0) noise = noise * 1664525u + 1013904223u;
    data[i] = static_cast<uint8_t>((i / 5 + (noise >> 24)) & 0xff);
  }
  return Sample(DType::kUInt8, TensorShape{h, w, 3}, std::move(data));
}

/// Stored bytes (the frame, under sample compression) of flushed sample
/// `i`, read from its chunk object.
ByteBuffer StoredAt(Tensor& t, uint64_t i) {
  auto loc = t.chunk_encoder().Find(i).MoveValue();
  auto chunk =
      Chunk::Parse(t.store()->Get(t.ChunkKey(loc.chunk_id)).MoveValue())
          .MoveValue();
  Slice stored = chunk.StoredBytes(loc.local_index).MoveValue();
  return ByteBuffer(stored.data(), stored.data() + stored.size());
}

/// Every chunk object of `t`, in chunk-encoder order.
std::vector<ByteBuffer> ChunkObjects(Tensor& t) {
  std::vector<ByteBuffer> out;
  for (const ChunkEntry& e : t.chunk_encoder().entries()) {
    Slice obj = t.store()->Get(t.ChunkKey(e.chunk_id)).MoveValue();
    out.emplace_back(obj.data(), obj.data() + obj.size());
  }
  return out;
}

TEST(TensorTest, CreateAppendReadFlushReopen) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "image";  // lossless for exact comparison
  auto tensor = Tensor::Create(store, "images", opts);
  ASSERT_TRUE(tensor.ok()) << tensor.status();

  std::vector<Sample> originals;
  for (int i = 0; i < 20; ++i) {
    originals.push_back(Image(30 + i, 40, i));
    ASSERT_TRUE((*tensor)->Append(originals.back()).ok());
  }
  EXPECT_EQ((*tensor)->NumSamples(), 20u);

  // Reads hit both flushed chunks and the open buffer.
  for (int i = 0; i < 20; ++i) {
    auto s = (*tensor)->Read(i);
    ASSERT_TRUE(s.ok()) << s.status();
    EXPECT_EQ(s->data, originals[i].data) << i;
    EXPECT_EQ(*(*tensor)->ShapeAt(i), originals[i].shape);
  }
  ASSERT_TRUE((*tensor)->Flush().ok());

  // Reopen from storage: state fully persisted.
  auto reopened = Tensor::Open(store, "images");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->NumSamples(), 20u);
  EXPECT_EQ((*reopened)->meta().htype.kind, HtypeKind::kImage);
  for (int i : {0, 7, 19}) {
    EXPECT_EQ((*reopened)->Read(i)->data, originals[i].data);
  }
  EXPECT_TRUE((*reopened)->Read(20).status().IsOutOfRange());
}

/// Counts every store call, per key.
class CountingStore : public storage::ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;
  Result<Slice> Get(std::string_view key) override {
    Count(gets, key);
    return ForwardingStore::Get(key);
  }
  Status Put(std::string_view key, ByteView value) override {
    Count(puts, key);
    return ForwardingStore::Put(key, value);
  }
  Status PutDurable(std::string_view key, ByteView value) override {
    Count(durable_puts, key);
    return ForwardingStore::PutDurable(key, value);
  }
  std::string name() const override { return "counting"; }

  static uint64_t Total(const std::map<std::string, uint64_t>& m) {
    uint64_t n = 0;
    for (const auto& [k, v] : m) n += v;
    return n;
  }
  // Read and cleared only between operations; counted under mu_, since a
  // dataset flush calls the store from several threads.
  std::map<std::string, uint64_t> gets, puts, durable_puts;

 private:
  void Count(std::map<std::string, uint64_t>& m, std::string_view key) {
    MutexLock lock(mu_);
    ++m[std::string(key)];
  }
  Mutex mu_{"test.counting_store.mu"};
};

TEST(TensorTest, IndexIsOneDurableObjectAndMetaIsWrittenOnce) {
  auto store = std::make_shared<CountingStore>(Mem());
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts).MoveValue();
  for (int round = 0; round < 3; ++round) {
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(tensor->Append(Sample::Scalar(i, DType::kInt64)).ok());
    }
    store->puts.clear();
    store->durable_puts.clear();
    ASSERT_TRUE(tensor->Flush().ok());
    EXPECT_EQ(CountingStore::Total(store->puts), 1u);  // the new chunk
    EXPECT_EQ(store->durable_puts,
              (std::map<std::string, uint64_t>{{"tensors/t/encoders.bin", 1}}));
  }
  store->gets.clear();
  auto reopened = Tensor::Open(store, "t");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(CountingStore::Total(store->gets), 2u);
  EXPECT_EQ((*reopened)->NumSamples(), 12u);
  // Over the Create and the three rounds, the meta was put once.
  auto meta = std::make_shared<CountingStore>(Mem());
  auto t2 = Tensor::Create(meta, "t", opts).MoveValue();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(t2->Append(Sample::Scalar(int64_t{1}, DType::kInt64)).ok());
    ASSERT_TRUE(t2->Flush().ok());
  }
  EXPECT_EQ(meta->durable_puts["tensors/t/tensor_meta.json"] +
                meta->puts["tensors/t/tensor_meta.json"],
            1u);
}

/// A two-tensor dataset whose `labels` index is the object under test.
storage::StoragePtr IndexedDataset() {
  auto store = Mem();
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ds->Append({{"labels", Sample::Scalar(i, DType::kInt32)}}).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return store;
}

bool FsckFlags(storage::StoragePtr store, const std::string& key) {
  auto report = version::FsckScan(store);
  if (!report.ok()) return false;
  for (const auto& issue : report->issues) {
    if (issue.kind == version::FsckIssueKind::kCorruptObject &&
        issue.key == key) {
      return true;
    }
  }
  return false;
}

TEST(TensorTest, EveryByteEditOfTheIndexIsCorruption) {
  auto store = IndexedDataset();
  const std::string key = "tensors/labels/encoders.bin";
  Slice good = store->Get(key).MoveValue();
  const ByteBuffer original(good.data(), good.data() + good.size());
  for (size_t i = 0; i < original.size(); ++i) {
    for (int delta : {1, -1}) {
      ByteBuffer edited = original;
      edited[i] = static_cast<uint8_t>(edited[i] + delta);
      ASSERT_TRUE(store->Put(key, ByteView(edited)).ok());
      auto opened = Dataset::Open(store);
      EXPECT_TRUE(opened.status().IsCorruption())
          << "byte " << i << " " << delta << ": " << opened.status();
      EXPECT_TRUE(FsckFlags(store, key)) << "byte " << i << " " << delta;
    }
  }
  ASSERT_TRUE(store->Put(key, ByteView(original)).ok());
  EXPECT_TRUE(Dataset::Open(store).ok());
}

TEST(TensorTest, ForgedIndexWithValidEnvelopeIsCorruption) {
  auto store = IndexedDataset();
  const std::string key = "tensors/labels/encoders.bin";
  // A valid envelope around a chunk encoder that declares 2^62 rows.
  ByteBuffer payload = {0x09, 0x80, 0x80, 0x80, 0x80, 0x80,
                        0x80, 0x80, 0x80, 0x40, 0x01, 0x00, 0x00};
  ASSERT_TRUE(store->Put(key, ByteView(EnvelopeWrap(ByteView(payload)))).ok());
  auto opened = Dataset::Open(store);
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status();
  EXPECT_TRUE(FsckFlags(store, key));
}

TEST(TensorTest, IndexWhoseMapsDisagreeIsCorruption) {
  auto store = IndexedDataset();  // labels: 5 rows in one chunk
  const std::string key = "tensors/labels/encoders.bin";
  TensorIndex good =
      storage::GetDecoded(*store, key, TensorIndex::Deserialize).MoveValue();
  // A shape for a row no chunk holds.
  TensorIndex extra_shape = good;
  extra_shape.shapes.Append(TensorShape{});
  // A tiled row past the last chunked row.
  TensorIndex stray_tile = good;
  TileLayout layout;
  layout.sample_shape = TensorShape{2};
  layout.tile_dims = {1};
  layout.grid = {2};
  layout.chunk_ids = {7, 8};
  stray_tile.tiles.Set(5, layout);
  for (const TensorIndex* forged : {&extra_shape, &stray_tile}) {
    ASSERT_TRUE(store->Put(key, ByteView(forged->Serialize())).ok());
    auto opened = Dataset::Open(store);
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status();
    EXPECT_TRUE(FsckFlags(store, key));
  }
  ASSERT_TRUE(store->Put(key, ByteView(good.Serialize())).ok());
  EXPECT_TRUE(Dataset::Open(store).ok());
}

TEST(TensorTest, CorruptCachedIndexHealsOnOpen) {
  auto base = IndexedDataset();
  const std::string key = "tensors/labels/encoders.bin";
  Slice good = base->Get(key).MoveValue();
  const ByteBuffer original(good.data(), good.data() + good.size());
  ByteBuffer bad = original;
  bad[bad.size() / 2] ^= 0x40;
  ASSERT_TRUE(base->Put(key, ByteView(bad)).ok());
  auto cache = std::make_shared<storage::LruCacheStore>(base, 1 << 20);
  ASSERT_TRUE(cache->Get(key).ok());  // caches the corrupt bytes
  ASSERT_TRUE(base->Put(key, ByteView(original)).ok());  // heal the base only
  auto opened = Dataset::Open(cache);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ((*opened)->NumRows(), 5u);
}

TEST(TensorTest, RechunkAndUpdateDeleteTheChunksTheyReplace) {
  auto store = Mem();
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts).MoveValue();
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(tensor->Append(Sample::Scalar(i, DType::kInt64)).ok());
    ASSERT_TRUE(tensor->Flush().ok());
  }
  auto chunk_objects = [&] {
    return store->ListPrefix("tensors/t/chunks/").MoveValue().size();
  };
  EXPECT_EQ(chunk_objects(), 30u);
  ASSERT_TRUE(tensor->UpdateContiguous(
                        3, {Sample::Scalar(int64_t{100}, DType::kInt64),
                            Sample::Scalar(int64_t{101}, DType::kInt64)})
                  .ok());
  EXPECT_EQ(chunk_objects(), 30u);
  auto chunks = tensor->Rechunk();
  ASSERT_TRUE(chunks.ok()) << chunks.status();
  EXPECT_EQ(*chunks, 1u);
  EXPECT_EQ(chunk_objects(), 1u);
  auto reopened = Tensor::Open(store, "t").MoveValue();
  for (uint64_t i = 0; i < 30; ++i) {
    int64_t want = i == 3 ? 100 : i == 4 ? 101 : static_cast<int64_t>(i);
    EXPECT_EQ(reopened->Read(i)->AsInt(), want) << i;
  }
}

TEST(TensorTest, RechunkInANewHeadKeepsTheSealedCommitsChunks) {
  auto base = Mem();
  auto vc = version::VersionControl::OpenOrInit(base).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  Tensor* t = ds->CreateTensor("t", opts).MoveValue();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->Append(Sample::Scalar(i, DType::kInt64)).ok());
    ASSERT_TRUE(t->Flush().ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  const std::string sealed = vc->current_commit();
  ASSERT_TRUE(vc->Commit("ten chunks").ok());
  auto head = Dataset::Open(vc->working_store()).MoveValue();
  Tensor* ht = head->GetTensor("t").MoveValue();
  for (int64_t i = 10; i < 15; ++i) {
    ASSERT_TRUE(ht->Append(Sample::Scalar(i, DType::kInt64)).ok());
    ASSERT_TRUE(ht->Flush().ok());
  }
  ASSERT_TRUE(ht->Rechunk().ok());
  ASSERT_TRUE(head->Flush().ok());
  ASSERT_TRUE(vc->Commit("rechunked").ok());

  auto at = Dataset::Open(vc->StoreAt(sealed).MoveValue()).MoveValue();
  Tensor* st = at->GetTensor("t").MoveValue();
  ASSERT_EQ(st->NumSamples(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    auto s = st->Read(i);
    ASSERT_TRUE(s.ok()) << i << ": " << s.status();
    EXPECT_EQ(s->AsInt(), static_cast<int64_t>(i));
  }
  auto now = Dataset::Open(vc->working_store()).MoveValue();
  for (uint64_t i = 0; i < 15; ++i) {
    EXPECT_EQ(now->GetTensor("t").MoveValue()->Read(i)->AsInt(),
              static_cast<int64_t>(i));
  }
  auto report = version::FsckScan(base);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->issues.size() << " issues, first: "
                               << report->issues[0].key;
}

TEST(TensorTest, CreateTwiceFails) {
  auto store = Mem();
  ASSERT_TRUE(Tensor::Create(store, "t", {}).ok());
  EXPECT_TRUE(Tensor::Create(store, "t", {}).status().IsAlreadyExists());
}

TEST(TensorTest, OpenMissingFails) {
  EXPECT_TRUE(Tensor::Open(Mem(), "nope").status().IsNotFound());
}

TEST(TensorTest, HtypeValidationRejectsBadSamples) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  auto tensor = Tensor::Create(store, "images", opts);
  ASSERT_TRUE(tensor.ok());
  // Wrong ndim.
  Sample bad1 = Sample::FromVector<uint8_t>({1, 2, 3}, DType::kUInt8);
  EXPECT_TRUE((*tensor)->Append(bad1).IsInvalidArgument());
  // Wrong dtype.
  Sample bad2(DType::kFloat32, TensorShape{2, 2, 3}, ByteBuffer(48));
  EXPECT_TRUE((*tensor)->Append(bad2).IsInvalidArgument());
  // Grayscale (alt ndim) accepted.
  Sample gray(DType::kUInt8, TensorShape{4, 4}, ByteBuffer(16));
  EXPECT_TRUE((*tensor)->Append(gray).ok());
}

TEST(TensorTest, ChunkPackingRespectsUpperBound) {
  auto store = Mem();
  TensorOptions opts;
  opts.max_chunk_bytes = 4096;
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  // 1KB samples -> ~4 per chunk.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*tensor)
            ->Append(Sample(DType::kUInt8, TensorShape{1024},
                            ByteBuffer(1024, static_cast<uint8_t>(i))))
            .ok());
  }
  ASSERT_TRUE((*tensor)->Flush().ok());
  EXPECT_EQ((*tensor)->chunk_encoder().num_samples(), 20u);
  EXPECT_EQ((*tensor)->chunk_encoder().num_chunks(), 5u);
  // Chunk ids are sequential (delta-friendly).
  const auto& entries = (*tensor)->chunk_encoder().entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].chunk_id, entries[i - 1].chunk_id + 1);
  }
}

TEST(TensorTest, LabelsWithChunkCompression) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "class_label";  // int32 + LZ77 chunk compression by default
  auto tensor = Tensor::Create(store, "labels", opts);
  ASSERT_TRUE(tensor.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        (*tensor)->Append(Sample::Scalar(i % 10, DType::kInt32)).ok());
  }
  ASSERT_TRUE((*tensor)->Flush().ok());
  for (int i : {0, 123, 999}) {
    EXPECT_EQ((*tensor)->Read(i)->AsInt(), i % 10);
  }
}

TEST(TensorTest, OversizedSampleIsTiled) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 64 * 1024;  // force tiling of a ~270KB sample
  auto tensor = Tensor::Create(store, "aerial", opts);
  ASSERT_TRUE(tensor.ok());

  Sample small = Image(20, 20, 1);
  Sample big = Image(300, 300, 2);  // 270000 bytes > 64KB
  ASSERT_TRUE((*tensor)->Append(small).ok());
  ASSERT_TRUE((*tensor)->Append(big).ok());
  ASSERT_TRUE((*tensor)->Append(small).ok());
  ASSERT_TRUE((*tensor)->Flush().ok());

  EXPECT_EQ((*tensor)->tile_encoder().num_tiled_samples(), 1u);
  EXPECT_TRUE((*tensor)->tile_encoder().IsTiled(1));
  // Shape encoder reports the real (untiled) shape.
  EXPECT_EQ(*(*tensor)->ShapeAt(1), big.shape);

  auto got = (*tensor)->Read(1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->shape, big.shape);
  EXPECT_EQ(got->data, big.data);
  EXPECT_EQ((*tensor)->Read(0)->data, small.data);
  EXPECT_EQ((*tensor)->Read(2)->data, small.data);

  // Persisted across reopen.
  auto reopened = Tensor::Open(store, "aerial");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Read(1)->data, big.data);
}

TEST(TensorTest, ReadRegionOnTiledSampleFetchesSubset) {
  auto store = std::make_shared<storage::InstrumentedStore>(Mem(), "tiles");
  TensorOptions opts;
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 32 * 1024;
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  Sample big = Image(256, 256, 5);  // 196KB -> multiple tiles
  ASSERT_TRUE((*tensor)->Append(big).ok());
  ASSERT_TRUE((*tensor)->Flush().ok());

  uint64_t gets_before = store->gets();
  auto region = (*tensor)->ReadRegion(0, {10, 20, 0}, {30, 40, 3});
  ASSERT_TRUE(region.ok()) << region.status();
  EXPECT_EQ(region->shape, (TensorShape{30, 40, 3}));
  // Verify contents against the original.
  for (uint64_t y = 0; y < 30; ++y) {
    for (uint64_t x = 0; x < 40; ++x) {
      for (uint64_t c = 0; c < 3; ++c) {
        ASSERT_EQ(region->data[(y * 40 + x) * 3 + c],
                  big.data[((y + 10) * 256 + (x + 20)) * 3 + c]);
      }
    }
  }
  // Only a subset of tile chunks was fetched (tiles are ~100x100; the
  // region touches at most 1 tile + neighbors, not the full grid).
  uint64_t gets = store->gets() - gets_before;
  TileLayout layout = ComputeTileLayout(big.shape, 1, 32 * 1024);
  EXPECT_LT(gets, layout.num_tiles());
}

TEST(TensorTest, ReadRegionUntiledCrops) {
  auto store = Mem();
  TensorOptions opts;
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  Sample img = Image(50, 60, 9);
  ASSERT_TRUE((*tensor)->Append(img).ok());
  auto region = (*tensor)->ReadRegion(0, {5, 6, 1}, {10, 12, 2});
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->shape, (TensorShape{10, 12, 2}));
  EXPECT_EQ(region->data[0], img.data[(5 * 60 + 6) * 3 + 1]);
  // Bounds are checked.
  EXPECT_TRUE(
      (*tensor)->ReadRegion(0, {45, 0, 0}, {10, 5, 3}).status().IsOutOfRange());
}

// One untiled (index 0) and one tiled (index 1) sample behind a store
// that counts Gets.
std::unique_ptr<Tensor> SmallAndTiled(storage::StoragePtr store) {
  TensorOptions opts;
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 1024;
  auto tensor = Tensor::Create(store, "t", opts);
  EXPECT_TRUE(tensor.ok()) << tensor.status();
  EXPECT_TRUE((*tensor)->Append(Image(4, 5, 1)).ok());    // 60 B
  EXPECT_TRUE((*tensor)->Append(Image(40, 40, 2)).ok());  // 4800 B: tiled
  EXPECT_TRUE((*tensor)->Flush().ok());
  EXPECT_EQ((*tensor)->tile_encoder().num_tiled_samples(), 1u);
  return std::move(*tensor);
}

TEST(TensorTest, ReadRegionRejectsBoundsThatWrap) {
  // starts + sizes wraps to 0 in uint64 arithmetic; the bounds check must
  // not accept the region (it read before the sample's buffer).
  auto tensor = SmallAndTiled(Mem());
  for (uint64_t i : {0, 1}) {
    auto region = tensor->ReadRegion(i, {UINT64_MAX, 0, 0}, {1, 5, 3});
    EXPECT_TRUE(region.status().IsOutOfRange()) << i << ": "
                                                << region.status();
  }
}

TEST(TensorTest, ReadRegionOfZeroSizeReadsNothing) {
  auto store = std::make_shared<storage::InstrumentedStore>(Mem(), "zero");
  auto tensor = SmallAndTiled(store);
  uint64_t gets_before = store->gets();
  for (uint64_t i : {0, 1}) {
    auto region = tensor->ReadRegion(i, {0, 0, 0}, {0, 5, 3});
    ASSERT_TRUE(region.ok()) << i << ": " << region.status();
    EXPECT_EQ(region->shape, (TensorShape{0, 5, 3}));
    EXPECT_TRUE(region->data.empty());
  }
  EXPECT_EQ(store->gets(), gets_before);
}

TEST(TensorTest, ReadEqualsFullRegion) {
  auto tensor = SmallAndTiled(Mem());
  for (uint64_t i : {0, 1}) {
    auto whole = tensor->Read(i);
    ASSERT_TRUE(whole.ok()) << whole.status();
    auto region = tensor->ReadRegion(i, {0, 0, 0}, whole->shape.dims());
    ASSERT_TRUE(region.ok()) << region.status();
    EXPECT_EQ(region->shape, whole->shape) << i;
    EXPECT_EQ(region->data, whole->data) << i;
  }
}

TEST(TensorTest, TileOfWrongShapeIsCorruption) {
  // A stored tile smaller than its layout says must not be copied from: the
  // copy would read past the tile's buffer.
  auto store = Mem();
  auto tensor = SmallAndTiled(store);
  const TileLayout* layout = tensor->tile_encoder().Get(1);
  ASSERT_NE(layout, nullptr);
  ChunkBuilder builder(tensor->meta().dtype, tensor->meta().sample_compression,
                       tensor->meta().chunk_compression);
  Sample small = Image(2, 2, 3);
  auto stored = EncodeSample(tensor->meta(), small);
  ASSERT_TRUE(stored.ok()) << stored.status();
  builder.Append(*stored, small.shape);
  auto obj = builder.Finish();
  ASSERT_TRUE(obj.ok()) << obj.status();
  ASSERT_TRUE(
      store->Put(tensor->ChunkKey(layout->chunk_ids[0]), ByteView(*obj)).ok());

  auto reopened = Tensor::Open(store, "t");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->Read(1).status().IsCorruption());
  EXPECT_TRUE((*reopened)
                  ->ReadRegion(1, {0, 0, 0}, {1, 1, 3})
                  .status()
                  .IsCorruption());
}

TEST(TensorTest, UpdateRewritesSampleInPlace) {
  auto store = Mem();
  TensorOptions opts;
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 8192;
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*tensor)->Append(Image(10, 10, i)).ok());
  }
  ASSERT_TRUE((*tensor)->Flush().ok());

  Sample replacement = Image(12, 8, 99);
  ASSERT_TRUE((*tensor)->Update(4, replacement).ok());
  EXPECT_EQ((*tensor)->Read(4)->data, replacement.data);
  EXPECT_EQ(*(*tensor)->ShapeAt(4), replacement.shape);
  // Neighbors untouched.
  EXPECT_EQ((*tensor)->Read(3)->data, Image(10, 10, 3).data);
  EXPECT_EQ((*tensor)->Read(5)->data, Image(10, 10, 5).data);
  EXPECT_EQ((*tensor)->NumSamples(), 10u);

  // Update persists across reopen.
  auto reopened = Tensor::Open(store, "t");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Read(4)->data, replacement.data);
}

TEST(TensorTest, UpdateContiguousRewritesEachChunkOnce) {
  auto store =
      std::make_shared<storage::InstrumentedStore>(Mem(), "contiguous");
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 1024;  // int64 scalars → 128 samples per chunk
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE((*tensor)->Append(Sample::Scalar(i, DType::kInt64)).ok());
  }
  ASSERT_TRUE((*tensor)->Flush().ok());

  // A dense range spanning two chunk boundaries (chunks are 128 samples:
  // [0,127], [128,255], [256,299]).
  std::vector<Sample> batch;
  for (int64_t i = 0; i < 200; ++i) {
    batch.push_back(Sample::Scalar(int64_t{1000 + i}, DType::kInt64));
  }
  uint64_t puts_before = store->puts();
  ASSERT_TRUE((*tensor)->UpdateContiguous(60, batch).ok());
  uint64_t puts = store->puts() - puts_before;
  // One rebuild per affected chunk (3) + encoder/meta persistence — far
  // from the ~200 chunk rewrites the per-sample path would issue.
  EXPECT_LE(puts, 10u);

  for (uint64_t i = 0; i < 300; ++i) {
    auto s = (*tensor)->Read(i);
    ASSERT_TRUE(s.ok()) << i << ": " << s.status();
    int64_t want = (i >= 60 && i < 260) ? 1000 + static_cast<int64_t>(i) - 60
                                        : static_cast<int64_t>(i);
    EXPECT_EQ(s->AsInt(), want) << i;
  }

  // Persisted: a reopen sees the same values.
  auto reopened = Tensor::Open(store, "t");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Read(60)->AsInt(), 1000);
  EXPECT_EQ((*reopened)->Read(259)->AsInt(), 1199);
  EXPECT_EQ((*reopened)->Read(260)->AsInt(), 260);
}

TEST(TensorTest, UpdateInsideFlushedRowsPersistsTheBufferedRows) {
  // 4 rows flushed and 2 buffered in the open chunk: an update of a
  // flushed row seals the open chunk, so the index it writes names all 6.
  auto store = Mem();
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts).MoveValue();
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(tensor->Append(Sample::Scalar(i, DType::kInt64)).ok());
    if (i == 3) {
      ASSERT_TRUE(tensor->Flush().ok());
    }
  }
  ASSERT_TRUE(
      tensor->UpdateContiguous(0, {Sample::Scalar(int64_t{100}, DType::kInt64)})
          .ok());
  auto reopened = Tensor::Open(store, "t");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->NumSamples(), 6u);
  EXPECT_EQ((*reopened)->shape_encoder().num_samples(), 6u);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*reopened)->Read(static_cast<uint64_t>(i))->AsInt(),
              i == 0 ? 100 : i);
  }
}

TEST(TensorTest, UpdateContiguousRejectsRangePastEnd) {
  auto store = Mem();
  TensorOptions opts;
  opts.dtype = "int64";
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*tensor)->Append(Sample::Scalar(i, DType::kInt64)).ok());
  }
  std::vector<Sample> two = {Sample::Scalar(int64_t{9}, DType::kInt64),
                             Sample::Scalar(int64_t{9}, DType::kInt64)};
  // Unlike Update, the batched path has no sparse/append semantics.
  EXPECT_TRUE((*tensor)->UpdateContiguous(3, two).IsOutOfRange());
  EXPECT_TRUE((*tensor)->UpdateContiguous(4, two).IsOutOfRange());
  EXPECT_TRUE((*tensor)->UpdateContiguous(0, {}).ok());  // empty is a no-op
}

// In-place updates that tile, untile or re-tile a sample. Samples over
// kMaxChunk raw bytes are tiled.
class TiledUpdateTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMaxChunk = 64 * 1024;

  void SetUp() override {
    TensorOptions opts;
    opts.htype = "image";
    opts.sample_compression = "none";
    opts.max_chunk_bytes = kMaxChunk;
    auto tensor = Tensor::Create(store_, "t", opts);
    ASSERT_TRUE(tensor.ok()) << tensor.status();
    tensor_ = std::move(*tensor);
    for (const Sample& s : base_) ASSERT_TRUE(tensor_->Append(s).ok());
    ASSERT_TRUE(tensor_->Flush().ok());
    ASSERT_TRUE(tensor_->tile_encoder().IsTiled(1));
  }

  // Checks data, shape and tiling of every sample, in memory and after a
  // reopen from the store.
  void ExpectContents(const std::vector<Sample>& want) {
    Check(*tensor_, want, "in memory");
    auto reopened = Tensor::Open(store_, "t");
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    Check(**reopened, want, "reopened");
  }

  static void Check(Tensor& tensor, const std::vector<Sample>& want,
                    const std::string& label) {
    ASSERT_EQ(tensor.NumSamples(), want.size()) << label;
    size_t tiled = 0;
    for (uint64_t i = 0; i < want.size(); ++i) {
      auto got = tensor.Read(i);
      ASSERT_TRUE(got.ok()) << label << " " << i << ": " << got.status();
      EXPECT_EQ(got->shape, want[i].shape) << label << " " << i;
      EXPECT_EQ(got->data, want[i].data) << label << " " << i;
      EXPECT_EQ(*tensor.ShapeAt(i), want[i].shape) << label << " " << i;
      bool oversized = want[i].nbytes() > kMaxChunk;
      EXPECT_EQ(tensor.tile_encoder().IsTiled(i), oversized)
          << label << " " << i;
      tiled += oversized;
    }
    EXPECT_EQ(tensor.tile_encoder().num_tiled_samples(), tiled) << label;
  }

  storage::StoragePtr store_ = Mem();
  std::unique_ptr<Tensor> tensor_;
  std::vector<Sample> base_ = {Image(20, 20, 0), Image(300, 300, 1),
                               Image(20, 20, 2)};
};

TEST_F(TiledUpdateTest, SmallToTiled) {
  Sample big = Image(280, 250, 10);
  ASSERT_TRUE(tensor_->Update(0, big).ok());
  ExpectContents({big, base_[1], base_[2]});
}

TEST_F(TiledUpdateTest, TiledToSmall) {
  Sample small = Image(16, 24, 11);
  ASSERT_TRUE(tensor_->Update(1, small).ok());
  ExpectContents({base_[0], small, base_[2]});
}

TEST_F(TiledUpdateTest, TiledToTiled) {
  Sample big = Image(200, 260, 12);
  ASSERT_TRUE(tensor_->Update(1, big).ok());
  ExpectContents({base_[0], big, base_[2]});
}

TEST_F(TiledUpdateTest, SparseWritePastEndTiles) {
  Sample big = Image(260, 300, 13);
  ASSERT_TRUE(tensor_->Update(5, big).ok());
  ASSERT_TRUE(tensor_->Flush().ok());  // the padded tail is appended
  Sample empty = Sample::EmptyOf(DType::kUInt8);
  ExpectContents({base_[0], base_[1], base_[2], empty, empty, big});
}

TEST_F(TiledUpdateTest, ContiguousRangeWithOversizedSample) {
  std::vector<Sample> batch = {Image(300, 220, 14), Image(18, 18, 15),
                               Image(22, 20, 16)};
  ASSERT_TRUE(tensor_->UpdateContiguous(0, batch).ok());
  ExpectContents(batch);
}

TEST(TensorTest, SparseOutOfBoundsAssignmentPads) {
  auto store = Mem();
  TensorOptions opts;
  opts.sample_compression = "none";
  auto tensor = Tensor::Create(store, "preds", opts);
  ASSERT_TRUE(tensor.ok());
  ASSERT_TRUE((*tensor)->Append(Image(5, 5, 0)).ok());
  // Assign index 4: indices 1..3 become empty samples (§3.5).
  Sample s = Image(6, 6, 4);
  ASSERT_TRUE((*tensor)->Update(4, s).ok());
  EXPECT_EQ((*tensor)->NumSamples(), 5u);
  EXPECT_TRUE((*tensor)->Read(2)->shape.IsEmptySample());
  EXPECT_EQ((*tensor)->Read(4)->data, s.data);
}

TEST(TensorTest, RechunkCompactsFragmentedLayout) {
  auto store = Mem();
  TensorOptions opts;
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 16 * 1024;
  auto tensor = Tensor::Create(store, "t", opts);
  ASSERT_TRUE(tensor.ok());
  // Fragment: many flushes produce many small chunks.
  std::vector<Sample> originals;
  for (int i = 0; i < 30; ++i) {
    originals.push_back(Image(8, 8, i));  // 192B each
    ASSERT_TRUE((*tensor)->Append(originals.back()).ok());
    ASSERT_TRUE((*tensor)->Flush().ok());  // one chunk per sample
  }
  EXPECT_EQ((*tensor)->chunk_encoder().num_chunks(), 30u);

  auto after = (*tensor)->Rechunk();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, 1u);  // 30 * 192B packs into one 16KB chunk
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ((*tensor)->Read(i)->data, originals[i].data) << i;
  }
}

TEST(TensorTest, VideoHtypeNeverTiled) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "video";
  opts.sample_compression = "none";
  opts.max_chunk_bytes = 4096;
  auto tensor = Tensor::Create(store, "clips", opts);
  ASSERT_TRUE(tensor.ok());
  // 10 frames of 20x20x3 = 12000 bytes > 4096, but videos stay whole.
  Sample video(DType::kUInt8, TensorShape{10, 20, 20, 3},
               ByteBuffer(12000, 7));
  ASSERT_TRUE((*tensor)->Append(video).ok());
  ASSERT_TRUE((*tensor)->Flush().ok());
  EXPECT_EQ((*tensor)->tile_encoder().num_tiled_samples(), 0u);
  EXPECT_EQ((*tensor)->Read(0)->data, video.data);
}

TEST(TensorTest, PrecompressedIngestFastPath) {
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "image";
  auto tensor = Tensor::Create(store, "images", opts);
  ASSERT_TRUE(tensor.ok());
  Sample img = Image(32, 32, 3);
  auto frame = compress::CompressBytes(
      compress::Compression::kImage, ByteView(img.data),
      ContextForSample(DType::kUInt8, img.shape));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*tensor)->AppendPrecompressed(ByteView(*frame), img.shape).ok());
  EXPECT_EQ((*tensor)->Read(0)->data, img.data);
}

TEST(TensorTest, PrecompressedFrameMustDeclareItsShape) {
  // A frame is checked where it enters: one that declares another raw size
  // than shape x dtype would make every later read of it Corruption.
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "image";
  auto tensor = Tensor::Create(store, "images", opts).MoveValue();
  Sample img = Image(16, 16, 5);  // 768 raw bytes
  ByteBuffer frame =
      compress::CompressBytes(compress::Compression::kImage,
                              ByteView(img.data),
                              ContextForSample(DType::kUInt8, img.shape))
          .MoveValue();
  Status wrong = tensor->AppendPrecompressed(ByteView(frame),
                                             TensorShape{8, 8, 3});
  EXPECT_TRUE(wrong.IsInvalidArgument()) << wrong;
  EXPECT_NE(wrong.ToString().find("declares 768"), std::string::npos)
      << wrong;
  const ByteBuffer garbage = {'n', 'o', 't', ' ', 'a', 'n', ' ', 'i', 'm'};
  EXPECT_TRUE(tensor->AppendPrecompressed(ByteView(garbage), img.shape)
                  .IsInvalidArgument());
  EXPECT_EQ(tensor->NumSamples(), 0u);

  ASSERT_TRUE(tensor->AppendPrecompressed(ByteView(frame), img.shape).ok());
  ASSERT_TRUE(tensor->Flush().ok());
  ASSERT_EQ(tensor->NumSamples(), 1u);
  EXPECT_EQ(tensor->Read(0)->data, img.data);
}

TEST(TensorTest, QualityReachesTheEncoder) {
  // Quality 95 keeps every bit of a lossy tensor's samples; the default
  // (75) quantizes them, so the two tensors' frames differ.
  auto store = Mem();
  Sample img = Image(16, 16, 4);
  std::vector<ByteBuffer> frames;
  for (int quality : {95, 75}) {
    TensorOptions opts;
    opts.htype = "image";
    opts.sample_compression = "jpeg";
    opts.quality = quality;
    auto tensor =
        Tensor::Create(store, "q" + std::to_string(quality), opts).MoveValue();
    ASSERT_TRUE(tensor->Append(img).ok());
    ASSERT_TRUE(tensor->Flush().ok());
    frames.push_back(StoredAt(*tensor, 0));
    if (quality == 95) {
      EXPECT_EQ(tensor->Read(0)->data, img.data);
    }
  }
  EXPECT_FALSE(frames[0] == frames[1]);
}

TEST(TensorTest, UpdatesAndRechunkCopyUnchangedFrames) {
  // Row 0 is a quality-95 frame appended precompressed into a default-
  // quality lossy tensor. Rewriting the chunks around it, or re-packing the
  // tensor, copies its frame and every other kept frame verbatim; a decode
  // and re-encode at the tensor's quality would change them.
  auto store = Mem();
  TensorOptions opts;
  opts.htype = "image";
  opts.sample_compression = "jpeg";
  opts.max_chunk_bytes = 1024;
  auto tensor = Tensor::Create(store, "images", opts).MoveValue();
  Sample first = Image(8, 8, 100);
  compress::CodecContext ctx = ContextForSample(DType::kUInt8, first.shape);
  ctx.quality = 95;
  ByteBuffer frame =
      compress::CompressBytes(compress::Compression::kImageLossy,
                              ByteView(first.data), ctx)
          .MoveValue();
  ASSERT_TRUE(tensor->AppendPrecompressed(ByteView(frame), first.shape).ok());
  for (int i = 1; i < 12; ++i) {
    ASSERT_TRUE(tensor->Append(Image(8, 8, i)).ok());
  }
  ASSERT_TRUE(tensor->Flush().ok());
  ASSERT_GE(tensor->chunk_encoder().num_chunks(), 2u);
  // The last row of the first chunk; the range updated below starts there.
  const uint64_t edge = tensor->chunk_encoder().entries()[0].last_index;
  ASSERT_GT(edge, 1u);
  auto all_stored = [&] {
    std::vector<ByteBuffer> out;
    for (uint64_t i = 0; i < 12; ++i) out.push_back(StoredAt(*tensor, i));
    return out;
  };
  const std::vector<ByteBuffer> before = all_stored();
  EXPECT_EQ(tensor->Read(0)->data, first.data);

  ASSERT_TRUE(tensor->Update(1, Image(8, 8, 201)).ok());
  ASSERT_TRUE(
      tensor->UpdateContiguous(edge, {Image(8, 8, 202), Image(8, 8, 203)})
          .ok());
  const std::vector<ByteBuffer> updated = all_stored();
  for (uint64_t i = 0; i < 12; ++i) {
    if (i == 1 || i == edge || i == edge + 1) continue;
    EXPECT_TRUE(updated[i] == before[i]) << "row " << i;
  }
  EXPECT_EQ(tensor->Read(0)->data, first.data);

  auto chunks = tensor->Rechunk();
  ASSERT_TRUE(chunks.ok()) << chunks.status();
  const std::vector<ByteBuffer> rechunked = all_stored();
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(rechunked[i] == updated[i]) << "row " << i;
  }
  EXPECT_EQ(tensor->Read(0)->data, first.data);
}

TEST(TensorTest, RechunkAfterOneFlushRewritesIdenticalChunks) {
  // Append and Rechunk share one packing rule and Rechunk copies frames,
  // so re-packing a tensor written with one final Flush reproduces its
  // chunk objects byte for byte. The sequence covers an empty sample after
  // an exactly full chunk and a tiled sample's placeholder.
  for (const char* compression : {"none", "jpeg"}) {
    SCOPED_TRACE(compression);
    auto store = Mem();
    TensorOptions opts;
    opts.htype = "image";
    opts.sample_compression = compression;
    opts.quality = 95;
    opts.max_chunk_bytes = 1152;  // exactly six 8x8x3 samples
    auto tensor = Tensor::Create(store, "images", opts).MoveValue();
    std::vector<Sample> rows;
    for (int i = 0; i < 6; ++i) rows.push_back(Image(8, 8, i));
    rows.push_back(Sample::EmptyOf(DType::kUInt8));
    for (int i = 6; i < 10; ++i) rows.push_back(Image(8, 8, i));
    rows.push_back(Image(24, 24, 99));  // 1,728 bytes: tiled
    for (int i = 10; i < 13; ++i) rows.push_back(Image(8, 8, i));
    for (const Sample& row : rows) ASSERT_TRUE(tensor->Append(row).ok());
    ASSERT_TRUE(tensor->Flush().ok());
    ASSERT_EQ(tensor->tile_encoder().num_tiled_samples(), 1u);

    const std::vector<ByteBuffer> before = ChunkObjects(*tensor);
    auto chunks = tensor->Rechunk();
    ASSERT_TRUE(chunks.ok()) << chunks.status();
    EXPECT_EQ(*chunks, before.size());
    EXPECT_TRUE(ChunkObjects(*tensor) == before);
    for (uint64_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(tensor->Read(i)->data, rows[i].data) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

TEST(DatasetTest, CreateOpenAppendRows) {
  auto store = Mem();
  auto ds = Dataset::Create(store);
  ASSERT_TRUE(ds.ok()) << ds.status();
  TensorOptions img_opts;
  img_opts.htype = "image";
  img_opts.sample_compression = "image";
  ASSERT_TRUE((*ds)->CreateTensor("images", img_opts).ok());
  TensorOptions lbl_opts;
  lbl_opts.htype = "class_label";
  ASSERT_TRUE((*ds)->CreateTensor("labels", lbl_opts).ok());

  for (int i = 0; i < 10; ++i) {
    std::map<std::string, Sample> row;
    row["images"] = Image(16, 16, i);
    row["labels"] = Sample::Scalar(i % 3, DType::kInt32);
    ASSERT_TRUE((*ds)->Append(row).ok());
  }
  EXPECT_EQ((*ds)->NumRows(), 10u);
  ASSERT_TRUE((*ds)->Flush().ok());

  auto reopened = Dataset::Open(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->NumRows(), 10u);
  auto row = (*reopened)->ReadRow(7);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at("images").data, Image(16, 16, 7).data);
  EXPECT_EQ(row->at("labels").AsInt(), 1);
  // Hidden sample-id tensor exists but is not listed or in rows.
  EXPECT_EQ(row->count("_sample_id"), 0u);
  auto names = (*reopened)->TensorNames();
  EXPECT_EQ(names.size(), 2u);
  auto all = (*reopened)->TensorNames(/*include_hidden=*/true);
  EXPECT_EQ(all.size(), 3u);
}

TEST(DatasetTest, SampleIdsAreUniqueAndStable) {
  auto store = Mem();
  auto ds = Dataset::Create(store);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE((*ds)->CreateTensor("x", {}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        (*ds)->Append({{"x", Sample::Scalar(i, DType::kUInt8)}}).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  auto ids = (*ds)->GetTensor(Dataset::kSampleIdTensor);
  ASSERT_TRUE(ids.ok());
  std::set<uint64_t> seen;
  for (int i = 0; i < 50; ++i) {
    seen.insert(static_cast<uint64_t>((*ids)->Read(i)->AsDouble()));
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(DatasetTest, MissingCellsBecomeEmpty) {
  auto ds = Dataset::Create(Mem());
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE((*ds)->CreateTensor("a", {}).ok());
  ASSERT_TRUE((*ds)->CreateTensor("b", {}).ok());
  ASSERT_TRUE(
      (*ds)->Append({{"a", Sample::Scalar(1, DType::kUInt8)}}).ok());
  auto row = (*ds)->ReadRow(0);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->at("b").shape.IsEmptySample());
  // Appending to an unknown tensor is an error.
  EXPECT_TRUE((*ds)
                  ->Append({{"zzz", Sample::Scalar(1, DType::kUInt8)}})
                  .IsNotFound());
}

TEST(DatasetTest, GroupsAreSyntactic) {
  auto ds = Dataset::Create(Mem());
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE((*ds)->CreateTensor("frames/left", {}).ok());
  ASSERT_TRUE((*ds)->CreateTensor("frames/right", {}).ok());
  ASSERT_TRUE((*ds)->CreateTensor("labels", {}).ok());
  auto groups = (*ds)->GroupNames();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], "frames");
  EXPECT_EQ((*ds)->TensorsInGroup("frames").size(), 2u);
}

TEST(DatasetTest, ReservedAndDuplicateNamesRejected) {
  auto ds = Dataset::Create(Mem());
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE((*ds)->CreateTensor("_secret", {}).status().IsInvalidArgument());
  EXPECT_TRUE((*ds)->CreateTensor("", {}).status().IsInvalidArgument());
  ASSERT_TRUE((*ds)->CreateTensor("x", {}).ok());
  EXPECT_TRUE((*ds)->CreateTensor("x", {}).status().IsAlreadyExists());
}

TEST(DatasetTest, LinkedTensorsResolve) {
  auto raw_bucket = Mem();  // "external" storage holding original files
  ASSERT_TRUE(
      raw_bucket->Put("imgs/0.bin", ByteView(std::string_view("rawbytes0")))
          .ok());
  auto ds = Dataset::Create(Mem());
  ASSERT_TRUE(ds.ok());
  TensorOptions opts;
  opts.htype = "link[image]";
  ASSERT_TRUE((*ds)->CreateTensor("image_links", opts).ok());
  ASSERT_TRUE((*ds)->AppendLink("image_links", "s3://imgs/0.bin").ok());

  StoreLinkResolver resolver;
  resolver.Register("s3", raw_bucket);
  auto bytes = (*ds)->ReadLinked("image_links", 0, resolver);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(ByteView(*bytes).ToString(), "rawbytes0");
  // Unregistered scheme fails cleanly.
  ASSERT_TRUE((*ds)->AppendLink("image_links", "gcs://imgs/0.bin").ok());
  EXPECT_TRUE(
      (*ds)->ReadLinked("image_links", 1, resolver).status().IsNotFound());
  // Non-link tensors refuse link ops.
  ASSERT_TRUE((*ds)->CreateTensor("plain", {}).ok());
  EXPECT_TRUE(
      (*ds)->AppendLink("plain", "s3://x").IsFailedPrecondition());
}

TEST(DatasetTest, ProvenanceLogGrows) {
  auto store = Mem();
  auto ds = Dataset::Create(store);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE((*ds)->CreateTensor("x", {}).ok());
  (*ds)->LogProvenance("custom event");
  ASSERT_TRUE((*ds)->Flush().ok());
  auto reopened = Dataset::Open(store);
  ASSERT_TRUE(reopened.ok());
  const Json& prov = (*reopened)->meta().Get("provenance");
  ASSERT_GE(prov.size(), 3u);  // created + tensor + custom
  bool found = false;
  for (size_t i = 0; i < prov.size(); ++i) {
    if (prov[i].Get("event").as_string() == "custom event") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DatasetTest, WorksOverPosixAndFaultyStores) {
  // Posix round trip.
  std::string dir = std::string("/tmp/dl_ds_test_") + std::to_string(getpid());
  auto posix = std::make_shared<storage::PosixStore>(dir);
  auto ds = Dataset::Create(posix);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE((*ds)->CreateTensor("x", {}).ok());
  ASSERT_TRUE((*ds)->Append({{"x", Sample::Scalar(5, DType::kUInt8)}}).ok());
  ASSERT_TRUE((*ds)->Flush().ok());
  auto back = Dataset::Open(posix);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->ReadRow(0)->at("x").AsInt(), 5);

  // Faulty store: operations surface IOError instead of corrupting.
  auto faulty = std::make_shared<storage::FaultInjectionStore>(
      std::make_shared<storage::MemoryStore>(), 2);
  bool saw_error = false;
  auto ds2 = Dataset::Create(faulty);
  if (!ds2.ok()) {
    saw_error = true;
  } else {
    auto t = (*ds2)->CreateTensor("x", {});
    if (!t.ok()) {
      saw_error = true;
    } else {
      for (int i = 0; i < 10 && !saw_error; ++i) {
        if (!(*ds2)
                 ->Append({{"x", Sample::Scalar(i, DType::kUInt8)}})
                 .ok() ||
            !(*ds2)->Flush().ok()) {
          saw_error = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_error);
}

}  // namespace
}  // namespace dl::tsf
