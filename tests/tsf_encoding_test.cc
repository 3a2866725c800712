// Tests for the TSF building blocks: dtype/htype, chunk format,
// chunk/shape/tile encoders — including property suites over random
// workloads.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "tsf/chunk.h"
#include "tsf/chunk_encoder.h"
#include "tsf/dtype.h"
#include "tsf/htype.h"
#include "tsf/shape_encoder.h"
#include "tsf/tensor.h"
#include "tsf/tile_encoder.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/macros.h"
#include "util/rng.h"

namespace dl::tsf {
namespace {

// ---------------------------------------------------------------------------
// DType / Htype
// ---------------------------------------------------------------------------

TEST(DTypeTest, SizesAndNamesRoundTrip) {
  for (int i = 0; i <= 10; ++i) {
    DType t = static_cast<DType>(i);
    auto parsed = DTypeFromName(DTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
    EXPECT_GT(DTypeSize(t), 0u);
  }
  EXPECT_EQ(DTypeSize(DType::kFloat64), 8u);
  EXPECT_EQ(DTypeSize(DType::kUInt8), 1u);
  EXPECT_TRUE(DTypeFromName("complex128").status().IsInvalidArgument());
}

TEST(HtypeTest, ParseBaseAndMetaTypes) {
  auto img = ParseHtype("image");
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->kind, HtypeKind::kImage);
  EXPECT_FALSE(img->is_sequence);

  auto seq = ParseHtype("sequence[image]");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->kind, HtypeKind::kImage);
  EXPECT_TRUE(seq->is_sequence);
  EXPECT_EQ(seq->ToString(), "sequence[image]");

  auto link = ParseHtype("link[image]");
  ASSERT_TRUE(link.ok());
  EXPECT_TRUE(link->is_link);
  EXPECT_EQ(link->ToString(), "link[image]");

  EXPECT_TRUE(ParseHtype("hologram").status().IsInvalidArgument());
}

TEST(HtypeTest, ExpectationsReflectKind) {
  auto img = *ParseHtype("image");
  EXPECT_EQ(img.expectations().ndim, 3);
  EXPECT_EQ(img.expectations().alt_ndim, 2);
  EXPECT_EQ(img.default_dtype(), DType::kUInt8);
  // Sequence adds a leading dimension.
  auto seq = *ParseHtype("sequence[image]");
  EXPECT_EQ(seq.expectations().ndim, 4);
  // Videos are tiling-exempt (paper §3.4).
  EXPECT_TRUE(ParseHtype("video")->exempt_from_tiling());
  EXPECT_FALSE(img.exempt_from_tiling());
}

TEST(HtypeTest, DefaultsFollowPaperExample) {
  // §5: images -> JPEG sample compression; labels -> LZ4 chunk compression.
  auto img = *ParseHtype("image");
  EXPECT_EQ(img.default_sample_compression(),
            compress::Compression::kImageLossy);
  auto lbl = *ParseHtype("class_label");
  EXPECT_EQ(lbl.default_chunk_compression(), compress::Compression::kLz77);
  EXPECT_EQ(lbl.default_dtype(), DType::kInt32);
}

// ---------------------------------------------------------------------------
// Chunk format
// ---------------------------------------------------------------------------

Sample MakeSample(uint64_t h, uint64_t w, uint64_t c, uint64_t seed) {
  Rng rng(seed);
  ByteBuffer data(h * w * c);
  uint32_t noise = static_cast<uint32_t>(rng.Next()) | 1;
  for (size_t i = 0; i < data.size(); ++i) {
    if ((i & 15) == 0) noise = noise * 1664525u + 1013904223u;
    data[i] = static_cast<uint8_t>((i / 7 + (noise >> 24)) & 0xff);
  }
  return Sample(DType::kUInt8, TensorShape{h, w, c}, std::move(data));
}

/// Appends `s` to `builder` as a tensor stores it: encoded under sample
/// compression `c`.
Status AppendEncoded(ChunkBuilder& builder, compress::Compression c,
                     const Sample& s) {
  TensorMeta meta;
  meta.dtype = s.dtype;
  meta.sample_compression = c;
  DL_ASSIGN_OR_RETURN(Slice stored, EncodeSample(meta, s));
  builder.Append(stored, s.shape);
  return Status::OK();
}

struct ChunkCase {
  std::string label;
  compress::Compression sample_comp;
  compress::Compression chunk_comp;
};

class ChunkFormatTest : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ChunkFormatTest, BuildParseReadRoundTrip) {
  const auto& p = GetParam();
  bool lossy = p.sample_comp == compress::Compression::kImageLossy;
  ChunkBuilder builder(DType::kUInt8, p.sample_comp, p.chunk_comp);
  std::vector<Sample> originals;
  for (uint64_t i = 0; i < 6; ++i) {
    originals.push_back(MakeSample(10 + i, 12, 3, i));
    ASSERT_TRUE(AppendEncoded(builder, p.sample_comp, originals.back()).ok());
  }
  // Ragged + empty samples coexist in one chunk.
  originals.push_back(Sample::EmptyOf(DType::kUInt8));
  ASSERT_TRUE(AppendEncoded(builder, p.sample_comp, originals.back()).ok());

  ASSERT_EQ(builder.num_samples(), 7u);
  auto bytes = builder.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_TRUE(builder.empty());  // Finish resets

  auto chunk = Chunk::Parse(std::move(*bytes));
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  ASSERT_EQ(chunk->num_samples(), 7u);
  for (size_t i = 0; i < originals.size(); ++i) {
    auto s = chunk->ReadSample(i);
    ASSERT_TRUE(s.ok()) << s.status();
    EXPECT_EQ(s->shape, originals[i].shape);
    if (!lossy) {
      EXPECT_EQ(s->data, originals[i].data) << "sample " << i;
    } else {
      ASSERT_EQ(s->data.size(), originals[i].data.size());
    }
  }
  EXPECT_TRUE(chunk->ReadSample(7).status().IsOutOfRange());
}

INSTANTIATE_TEST_SUITE_P(
    Compressions, ChunkFormatTest,
    ::testing::Values(
        ChunkCase{"raw", compress::Compression::kNone,
                  compress::Compression::kNone},
        ChunkCase{"sample_image", compress::Compression::kImage,
                  compress::Compression::kNone},
        ChunkCase{"sample_lossy", compress::Compression::kImageLossy,
                  compress::Compression::kNone},
        ChunkCase{"chunk_lz", compress::Compression::kNone,
                  compress::Compression::kLz77},
        ChunkCase{"chunk_rle", compress::Compression::kNone,
                  compress::Compression::kRle}),
    [](const ::testing::TestParamInfo<ChunkCase>& info) {
      return info.param.label;
    });

TEST(ChunkFormatTest, CrcDetectsCorruption) {
  ChunkBuilder builder(DType::kUInt8, compress::Compression::kNone,
                       compress::Compression::kNone);
  ASSERT_TRUE(AppendEncoded(builder, compress::Compression::kNone,
                            MakeSample(8, 8, 3, 1))
                  .ok());
  ByteBuffer bytes = builder.Finish().MoveValue();
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(Chunk::Parse(std::move(bytes)).status().IsCorruption());
}

TEST(ChunkFormatTest, ForgedSampleCountIsCorruptionNotAnAllocation) {
  // A chunk whose header claims 2^40 samples, with a valid CRC: parsing
  // must reject the count before reserving room for it.
  ChunkBuilder builder(DType::kUInt8, compress::Compression::kNone,
                       compress::Compression::kNone);
  ASSERT_TRUE(AppendEncoded(builder, compress::Compression::kNone,
                            MakeSample(8, 8, 3, 1))
                  .ok());
  ByteBuffer real = builder.Finish().MoveValue();
  const size_t prefix = ChunkHeader::kFixedPrefix;
  const uint32_t header_len = DecodeFixed32(real.data() + 8);
  Decoder dec{ByteView(real).subview(prefix, header_len)};
  ASSERT_TRUE(dec.GetVarint64().ok());  // the real count, 1
  ByteBuffer header;
  PutVarint64(header, uint64_t{1} << 40);
  header.insert(header.end(), real.begin() + prefix + dec.position(),
                real.begin() + prefix + header_len);
  ByteBuffer forged(real.begin(), real.begin() + 8);
  PutFixed32(forged, static_cast<uint32_t>(header.size()));
  AppendBytes(forged, ByteView(header));
  forged.insert(forged.end(), real.begin() + prefix + header_len,
                real.end() - 4);
  PutFixed32(forged, Crc32c(ByteView(forged)));

  auto chunk = Chunk::Parse(std::move(forged));
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(chunk.status().IsCorruption()) << chunk.status();
  EXPECT_NE(chunk.status().ToString().find("claims 1099511627776 samples"),
            std::string::npos)
      << chunk.status();
}

TEST(ChunkFormatTest, HeaderOnlyParseGivesRanges) {
  ChunkBuilder builder(DType::kUInt8, compress::Compression::kNone,
                       compress::Compression::kNone);
  std::vector<Sample> originals;
  for (uint64_t i = 0; i < 4; ++i) {
    originals.push_back(MakeSample(5, 6, 1, i));
    ASSERT_TRUE(
        AppendEncoded(builder, compress::Compression::kNone, originals[i])
            .ok());
  }
  ByteBuffer bytes = builder.Finish().MoveValue();

  // Simulate the streaming path: fixed prefix -> header length -> header ->
  // exact sample range.
  auto hlen = ChunkHeader::PeekHeaderLen(
      ByteView(bytes.data(), ChunkHeader::kFixedPrefix));
  ASSERT_TRUE(hlen.ok());
  auto header = ChunkHeader::Parse(
      ByteView(bytes.data(), ChunkHeader::kFixedPrefix + *hlen));
  ASSERT_TRUE(header.ok());
  ASSERT_EQ(header->num_samples(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    uint64_t off, len;
    header->SampleRange(i, &off, &len);
    ASSERT_EQ(len, originals[i].data.size());
    EXPECT_EQ(ByteView(bytes.data() + off, len), ByteView(originals[i].data));
    EXPECT_EQ(header->shapes[i], originals[i].shape);
  }
}

TEST(ChunkFormatTest, BufferedReadBeforeFinish) {
  ChunkBuilder builder(DType::kUInt8, compress::Compression::kImage,
                       compress::Compression::kNone);
  Sample s = MakeSample(9, 9, 3, 2);
  ASSERT_TRUE(AppendEncoded(builder, compress::Compression::kImage, s).ok());
  auto buffered = builder.ReadBuffered(0);
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered->data, s.data);
  EXPECT_TRUE(builder.ReadBuffered(1).status().IsOutOfRange());
}

TEST(ChunkFormatTest, PrecompressedAppendEqualsNormal) {
  // The §5 ingestion fast path: a frame compressed externally with the
  // tensor's codec decodes identically.
  Sample s = MakeSample(16, 16, 3, 3);
  compress::CodecContext ctx = ContextForSample(DType::kUInt8, s.shape);
  auto frame = compress::CompressBytes(compress::Compression::kImage,
                                       ByteView(s.data), ctx);
  ASSERT_TRUE(frame.ok());
  ChunkBuilder builder(DType::kUInt8, compress::Compression::kImage,
                       compress::Compression::kNone);
  builder.Append(ByteView(*frame), s.shape);
  auto chunk = Chunk::Parse(builder.Finish().MoveValue());
  ASSERT_TRUE(chunk.ok());
  auto back = chunk->ReadSample(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data, s.data);
}

TEST(ChunkFormatTest, ForgedImageRawSizeIsCorruptionNamingExpectedSize) {
  // A stored image frame whose embedded LZ77 frame claims 100x the frame
  // size, inside LZ77's own 255x plausibility bound. The sample's shape
  // fixes the raw size, so the read fails on the declared size instead of
  // reserving room for it.
  Sample s = MakeSample(16, 16, 3, 3);
  compress::CodecContext ctx = ContextForSample(DType::kUInt8, s.shape);
  auto frame = compress::CompressBytes(compress::Compression::kImage,
                                       ByteView(s.data), ctx);
  ASSERT_TRUE(frame.ok());
  Decoder dec{ByteView(*frame)};
  ASSERT_TRUE(dec.Skip(3).ok());  // magic, mode, quantization shift
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(dec.GetVarint64().ok());
  const size_t lz_start = dec.position();
  auto lz_raw_size = dec.GetVarint64();
  ASSERT_TRUE(lz_raw_size.ok());
  ASSERT_EQ(*lz_raw_size, s.data.size());
  ByteBuffer forged(frame->begin(), frame->begin() + lz_start);
  PutVarint64(forged, 100 * frame->size());
  forged.insert(forged.end(), frame->begin() + dec.position(), frame->end());

  ChunkBuilder builder(DType::kUInt8, compress::Compression::kImage,
                       compress::Compression::kNone);
  builder.Append(ByteView(forged), s.shape);
  auto chunk = Chunk::Parse(builder.Finish().MoveValue());
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  auto back = chunk->ReadSample(0);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption()) << back.status();
  EXPECT_NE(back.status().ToString().find(
                "expected " + std::to_string(s.data.size())),
            std::string::npos)
      << back.status();
}

// ---------------------------------------------------------------------------
// ChunkEncoder
// ---------------------------------------------------------------------------

TEST(ChunkEncoderTest, FindResolvesBoundaries) {
  ChunkEncoder enc;
  enc.AddChunk(100, 5);   // indices 0..4
  enc.AddChunk(101, 1);   // index 5
  enc.AddChunk(102, 10);  // indices 6..15
  EXPECT_EQ(enc.num_samples(), 16u);
  EXPECT_EQ(enc.num_chunks(), 3u);

  auto l0 = *enc.Find(0);
  EXPECT_EQ(l0.chunk_id, 100u);
  EXPECT_EQ(l0.local_index, 0u);
  auto l4 = *enc.Find(4);
  EXPECT_EQ(l4.chunk_id, 100u);
  EXPECT_EQ(l4.local_index, 4u);
  auto l5 = *enc.Find(5);
  EXPECT_EQ(l5.chunk_id, 101u);
  EXPECT_EQ(l5.local_index, 0u);
  EXPECT_EQ(l5.chunk_samples, 1u);
  auto l15 = *enc.Find(15);
  EXPECT_EQ(l15.chunk_id, 102u);
  EXPECT_EQ(l15.local_index, 9u);
  EXPECT_EQ(l15.chunk_first, 6u);
  EXPECT_TRUE(enc.Find(16).status().IsOutOfRange());
}

TEST(ChunkEncoderTest, RowCountBeyondInputIsCorruption) {
  // The varint 2^62 as the row count, and no rows.
  const uint8_t input[] = {0x80, 0x80, 0x80, 0x80, 0x80,
                           0x80, 0x80, 0x80, 0x40};
  auto got = ChunkEncoder::Deserialize(ByteView(input, sizeof(input)));
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(TileEncoderTest, ChunkIdCountBeyondGridIsCorruption) {
  // One entry: index 0, a rank-0 shape (one tile), then 2^40 chunk ids.
  const uint8_t input[] = {0x01, 0x00, 0x00, 0x80, 0x80,
                           0x80, 0x80, 0x80, 0x20};
  auto got = TileEncoder::Deserialize(ByteView(input, sizeof(input)));
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(ChunkEncoderTest, EmptyEncoder) {
  ChunkEncoder enc;
  EXPECT_EQ(enc.num_samples(), 0u);
  EXPECT_TRUE(enc.Find(0).status().IsOutOfRange());
  auto bytes = enc.Serialize();
  auto back = ChunkEncoder::Deserialize(ByteView(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_samples(), 0u);
}

TEST(ChunkEncoderTest, ReplaceChunkIdKeepsMapping) {
  ChunkEncoder enc;
  enc.AddChunk(1, 3);
  enc.AddChunk(2, 3);
  ASSERT_TRUE(enc.ReplaceChunkId(1, 99).ok());
  EXPECT_EQ(enc.Find(4)->chunk_id, 99u);
  EXPECT_EQ(enc.Find(2)->chunk_id, 1u);
  EXPECT_TRUE(enc.ReplaceChunkId(5, 0).IsOutOfRange());
}

TEST(ChunkEncoderTest, ExtendLastChunk) {
  ChunkEncoder enc;
  enc.AddChunk(7, 2);
  enc.ExtendLastChunk(3);
  EXPECT_EQ(enc.num_samples(), 5u);
  EXPECT_EQ(enc.Find(4)->chunk_id, 7u);
}

class ChunkEncoderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkEncoderPropertyTest, RandomWorkloadBijectionAndRoundTrip) {
  Rng rng(GetParam());
  ChunkEncoder enc;
  // Sequential ids with a random base: the realistic allocation pattern.
  uint64_t id = rng.Next();
  std::vector<std::pair<uint64_t, uint64_t>> truth;  // (first_idx, chunk_id)
  uint64_t total = 0;
  for (int c = 0; c < 200; ++c) {
    uint64_t samples = 1 + rng.Uniform(50);
    enc.AddChunk(id, samples);
    truth.push_back({total, id});
    total += samples;
    ++id;
  }
  EXPECT_EQ(enc.num_samples(), total);
  // Every index resolves to the right chunk and a consistent local index.
  for (int probe = 0; probe < 500; ++probe) {
    uint64_t idx = rng.Uniform(total);
    auto loc = enc.Find(idx);
    ASSERT_TRUE(loc.ok());
    // Find expected via truth table.
    size_t t = 0;
    while (t + 1 < truth.size() && truth[t + 1].first <= idx) ++t;
    EXPECT_EQ(loc->chunk_id, truth[t].second);
    EXPECT_EQ(loc->chunk_first, truth[t].first);
    EXPECT_EQ(loc->local_index, idx - truth[t].first);
  }
  // Serialize -> deserialize is the identity.
  auto back = ChunkEncoder::Deserialize(ByteView(enc.Serialize()));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries().size(), enc.entries().size());
  for (size_t i = 0; i < enc.entries().size(); ++i) {
    EXPECT_EQ(back->entries()[i].last_index, enc.entries()[i].last_index);
    EXPECT_EQ(back->entries()[i].chunk_id, enc.entries()[i].chunk_id);
  }
  // Sequential ids + steady chunk sizes serialize compactly (<4 B/chunk,
  // the §3.4 scale claim's mechanism).
  EXPECT_LT(enc.Serialize().size(), enc.num_chunks() * 4 + 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkEncoderPropertyTest,
                         ::testing::Values(1, 7, 42, 1234));

// ---------------------------------------------------------------------------
// ShapeEncoder
// ---------------------------------------------------------------------------

TEST(ShapeEncoderTest, UniformShapesStayOneRow) {
  ShapeEncoder enc;
  for (int i = 0; i < 1000; ++i) enc.Append(TensorShape{224, 224, 3});
  EXPECT_EQ(enc.num_samples(), 1000u);
  EXPECT_EQ(enc.num_rows(), 1u);
  EXPECT_EQ(*enc.At(999), (TensorShape{224, 224, 3}));
  EXPECT_TRUE(enc.At(1000).status().IsOutOfRange());
}

TEST(ShapeEncoderTest, RaggedShapesResolve) {
  ShapeEncoder enc;
  enc.Append(TensorShape{10, 10});
  enc.Append(TensorShape{10, 10});
  enc.Append(TensorShape{20, 5});
  enc.Append(TensorShape{});  // scalar
  enc.Append(TensorShape{0});  // empty
  EXPECT_EQ(*enc.At(1), (TensorShape{10, 10}));
  EXPECT_EQ(*enc.At(2), (TensorShape{20, 5}));
  EXPECT_EQ(enc.At(3)->ndim(), 0u);
  EXPECT_TRUE(enc.At(4)->IsEmptySample());
}

TEST(ShapeEncoderTest, SetSplitsRuns) {
  ShapeEncoder enc;
  for (int i = 0; i < 10; ++i) enc.Append(TensorShape{4, 4});
  ASSERT_TRUE(enc.Set(5, TensorShape{9, 9}).ok());
  EXPECT_EQ(*enc.At(4), (TensorShape{4, 4}));
  EXPECT_EQ(*enc.At(5), (TensorShape{9, 9}));
  EXPECT_EQ(*enc.At(6), (TensorShape{4, 4}));
  EXPECT_EQ(enc.num_samples(), 10u);
  EXPECT_TRUE(enc.Set(10, TensorShape{1}).IsOutOfRange());
}

TEST(ShapeEncoderTest, SerializeRoundTrip) {
  Rng rng(3);
  ShapeEncoder enc;
  for (int i = 0; i < 300; ++i) {
    if (rng.NextBool(0.7)) {
      enc.Append(TensorShape{100, 100, 3});
    } else {
      enc.Append(TensorShape{rng.Uniform(50) + 1, rng.Uniform(50) + 1});
    }
  }
  auto back = ShapeEncoder::Deserialize(ByteView(enc.Serialize()));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_samples(), enc.num_samples());
  for (uint64_t i = 0; i < enc.num_samples(); ++i) {
    EXPECT_EQ(*back->At(i), *enc.At(i));
  }
}

// ---------------------------------------------------------------------------
// TileEncoder + tiling math
// ---------------------------------------------------------------------------

TEST(TileLayoutTest, ComputeSplitsSpatialDimsOnly) {
  // 4000x3000x3 uint8 = 36MB with an 8MB cap -> grid split over h,w only.
  TensorShape shape{4000, 3000, 3};
  TileLayout layout = ComputeTileLayout(shape, 1, 8 << 20);
  EXPECT_EQ(layout.tile_dims[2], 3u);  // channels intact
  uint64_t tile_bytes = layout.tile_dims[0] * layout.tile_dims[1] * 3;
  EXPECT_LE(tile_bytes, 8u << 20);
  EXPECT_GT(layout.num_tiles(), 1u);
  // Grid covers the full extent.
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_GE(layout.grid[d] * layout.tile_dims[d], shape[d]);
  }
}

TEST(TileLayoutTest, SmallSampleSingleTile) {
  TileLayout layout = ComputeTileLayout(TensorShape{100, 100, 3}, 1, 8 << 20);
  EXPECT_EQ(layout.num_tiles(), 1u);
}

class TilingPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t, uint64_t>> {
};

TEST_P(TilingPropertyTest, ExtractPlaceRoundTrip) {
  auto [h, w, max_kb] = GetParam();
  Sample s = MakeSample(h, w, 3, h * 1000 + w);
  TileLayout layout = ComputeTileLayout(s.shape, 1, max_kb * 1024);
  ByteBuffer assembled(s.data.size(), 0);
  std::vector<uint64_t> coord(layout.grid.size(), 0);
  const std::vector<uint64_t> zeros(coord.size(), 0);
  uint64_t tiles = 0;
  do {
    // Copy the tile out of the sample, then back into its place.
    std::vector<uint64_t> origin = layout.TileOrigin(coord);
    TensorShape tshape = layout.TileShapeAt(coord);
    ByteBuffer tile(tshape.NumElements(), 0);
    CopyBox(s.data.data(), s.shape, origin, tile.data(), tshape, zeros,
            tshape.dims(), 1);
    CopyBox(tile.data(), tshape, zeros, assembled.data(), s.shape, origin,
            tshape.dims(), 1);
    ++tiles;
  } while (NextCoord(coord, layout.grid));
  EXPECT_EQ(tiles, layout.num_tiles());
  EXPECT_EQ(assembled, s.data);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, TilingPropertyTest,
    ::testing::Values(std::make_tuple(64, 64, 4),     // 2x2-ish grid
                      std::make_tuple(100, 37, 2),    // ragged edges
                      std::make_tuple(33, 200, 1),    // wide
                      std::make_tuple(128, 128, 100),  // single tile
                      std::make_tuple(51, 51, 1)));

TEST(TileEncoderTest, SerializeRoundTrip) {
  TileEncoder enc;
  TileLayout layout = ComputeTileLayout(TensorShape{5000, 5000, 3}, 1, 8 << 20);
  uint64_t base = 0xABCD000000ull;
  for (uint64_t t = 0; t < layout.num_tiles(); ++t) {
    layout.chunk_ids.push_back(base + t);
  }
  enc.Set(7, layout);
  enc.Set(100, layout);
  EXPECT_TRUE(enc.IsTiled(7));
  EXPECT_FALSE(enc.IsTiled(8));

  auto back = TileEncoder::Deserialize(ByteView(enc.Serialize()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_tiled_samples(), 2u);
  const TileLayout* got = back->Get(7);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->sample_shape, layout.sample_shape);
  EXPECT_EQ(got->tile_dims, layout.tile_dims);
  EXPECT_EQ(got->grid, layout.grid);
  EXPECT_EQ(got->chunk_ids, layout.chunk_ids);

  back->Remove(7);
  EXPECT_FALSE(back->IsTiled(7));
}

}  // namespace
}  // namespace dl::tsf
