// Codec tests: per-codec behaviour plus a parameterized round-trip property
// suite that runs every codec against several data profiles.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "compress/codec.h"
#include "compress/codec_internal.h"
#include "reference_codec.h"
#include "util/rng.h"

namespace dl::compress {
namespace {

ByteBuffer MakeData(const std::string& profile, size_t n, uint64_t seed) {
  Rng rng(seed);
  ByteBuffer data(n);
  if (profile == "zeros") {
    // all zero already
  } else if (profile == "random") {
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  } else if (profile == "runs") {
    size_t i = 0;
    while (i < n) {
      uint8_t v = static_cast<uint8_t>(rng.Next());
      size_t run = 1 + rng.Uniform(200);
      for (size_t k = 0; k < run && i < n; ++k) data[i++] = v;
    }
  } else if (profile == "text") {
    static const char kWords[] =
        "select tensor from dataset where label order by score limit ";
    for (size_t i = 0; i < n; ++i) data[i] = kWords[i % (sizeof(kWords) - 1)];
  } else if (profile == "gradient") {
    // Smooth photographic-like data: strong row-to-row correlation.
    for (size_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>((i % 251) + (i / 997) % 5);
    }
  } else if (profile == "labels") {
    // Small integers with runs — typical class_label tensor bytes.
    for (size_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>(rng.Uniform(10));
    }
  }
  return data;
}

using RoundTripParam = std::tuple<Compression, std::string, size_t>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(CodecRoundTripTest, LosslessRoundTrip) {
  auto [comp, profile, size] = GetParam();
  ByteBuffer raw = MakeData(profile, size, 42);
  CodecContext ctx;
  ctx.row_stride = 96;  // pretend 32-px rows, 3 channels
  ctx.elem_size = comp == Compression::kDelta ? 4 : 3;
  auto frame = CompressBytes(comp, ByteView(raw), ctx);
  ASSERT_TRUE(frame.ok()) << frame.status();
  auto back = DecompressBytes(comp, ByteView(*frame));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, raw);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllProfiles, CodecRoundTripTest,
    ::testing::Combine(
        ::testing::Values(Compression::kNone, Compression::kLz77,
                          Compression::kRle, Compression::kDelta,
                          Compression::kImage),
        ::testing::Values("zeros", "random", "runs", "text", "gradient",
                          "labels"),
        ::testing::Values(size_t{0}, size_t{1}, size_t{7}, size_t{1000},
                          size_t{100000})),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      return std::string(CompressionName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Lz77Test, CompressesRedundantData) {
  ByteBuffer raw = MakeData("runs", 100000, 7);
  auto frame = CompressBytes(Compression::kLz77, ByteView(raw));
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(frame->size(), raw.size() / 4);
}

TEST(Lz77Test, RandomDataExpandsOnlySlightly) {
  ByteBuffer raw = MakeData("random", 100000, 9);
  auto frame = CompressBytes(Compression::kLz77, ByteView(raw));
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(frame->size(), raw.size() + raw.size() / 16 + 64);
}

TEST(Lz77Test, CorruptFrameIsError) {
  ByteBuffer raw = MakeData("text", 5000, 3);
  auto frame = CompressBytes(Compression::kLz77, ByteView(raw));
  ASSERT_TRUE(frame.ok());
  // Truncations must never crash and must mostly error. (A truncation that
  // lands exactly on a sequence boundary yields a short-output error too,
  // because raw_size is checked.)
  for (size_t cut : {size_t{1}, frame->size() / 2, frame->size() - 1}) {
    auto r = DecompressBytes(Compression::kLz77,
                             ByteView(frame->data(), cut));
    EXPECT_FALSE(r.ok());
  }
}

TEST(ImageCodecTest, PaethPredictorMatchesReferenceOnEveryInput) {
  for (int left = 0; left < 256; ++left) {
    for (int up = 0; up < 256; ++up) {
      for (int upleft = 0; upleft < 256; ++upleft) {
        uint8_t a = static_cast<uint8_t>(left), b = static_cast<uint8_t>(up),
                c = static_cast<uint8_t>(upleft);
        ASSERT_EQ(PaethPredict(a, b, c), reference::Paeth(a, b, c))
            << left << " " << up << " " << upleft;
      }
    }
  }
}

TEST(Lz77Test, Lz77FrameMayEndOnMatch) {
  // Only a match's start stays out of the last 4 bytes; its extension runs
  // to the end of the input. 64 bytes of 'a' are one literal and a 63-byte
  // match (4 + 15 + 0x2c) with no trailing literals.
  ByteBuffer raw(64, 'a');
  auto frame = CompressBytes(Compression::kLz77, ByteView(raw));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, (ByteBuffer{0x40, 0x1f, 0x61, 0x01, 0x00, 0x2c}));
  auto back = DecompressBytes(Compression::kLz77, ByteView(*frame));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, raw);
}

TEST(RleTest, LongRunsCompressHard) {
  ByteBuffer raw(100000, 0xCC);
  auto frame = CompressBytes(Compression::kRle, ByteView(raw));
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(frame->size(), 2000u);
}

TEST(DeltaTest, SortedIntegersCompress) {
  // int32 increasing sequence -> constant small deltas.
  std::vector<int32_t> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(1000 + i * 3);
  }
  ByteView raw(reinterpret_cast<const uint8_t*>(values.data()),
               values.size() * 4);
  CodecContext ctx;
  ctx.elem_size = 4;
  auto frame = CompressBytes(Compression::kDelta, raw, ctx);
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(frame->size(), raw.size() / 3);
  auto back = DecompressBytes(Compression::kDelta, ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ByteView(*back), raw);
}

TEST(DeltaTest, NegativeValuesRoundTrip) {
  std::vector<int64_t> values = {-5, -4, 0, 100, -100000, INT64_MIN,
                                 INT64_MAX, 0};
  ByteView raw(reinterpret_cast<const uint8_t*>(values.data()),
               values.size() * 8);
  CodecContext ctx;
  ctx.elem_size = 8;
  auto frame = CompressBytes(Compression::kDelta, raw, ctx);
  ASSERT_TRUE(frame.ok());
  auto back = DecompressBytes(Compression::kDelta, ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ByteView(*back), raw);
}

TEST(DeltaTest, TailBytesPreserved) {
  ByteBuffer raw = {1, 2, 3, 4, 5, 6, 7};  // 1 x int32 + 3 tail bytes
  CodecContext ctx;
  ctx.elem_size = 4;
  auto frame = CompressBytes(Compression::kDelta, ByteView(raw), ctx);
  ASSERT_TRUE(frame.ok());
  auto back = DecompressBytes(Compression::kDelta, ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

// Synthetic photographic image: smooth 2-D field + mild noise.
ByteBuffer MakeImage(size_t h, size_t w, size_t c, uint64_t seed) {
  Rng rng(seed);
  ByteBuffer img(h * w * c);
  for (size_t y = 0; y < h; ++y) {
    for (size_t x = 0; x < w; ++x) {
      for (size_t ch = 0; ch < c; ++ch) {
        double v = 128 + 90 * std::sin(x * 0.05 + ch) * std::cos(y * 0.04) +
                   rng.NextGaussian() * 3;
        if (v < 0) v = 0;
        if (v > 255) v = 255;
        img[(y * w + x) * c + ch] = static_cast<uint8_t>(v);
      }
    }
  }
  return img;
}

TEST(ImageCodecTest, LosslessRoundTripAndRatio) {
  ByteBuffer img = MakeImage(128, 128, 3, 5);
  CodecContext ctx;
  ctx.row_stride = 128 * 3;
  ctx.elem_size = 3;
  auto frame = CompressBytes(Compression::kImage, ByteView(img), ctx);
  ASSERT_TRUE(frame.ok());
  // Predictive filtering should beat plain LZ77 on smooth images.
  auto lz_only = CompressBytes(Compression::kLz77, ByteView(img));
  ASSERT_TRUE(lz_only.ok());
  EXPECT_LT(frame->size(), lz_only->size());
  auto back = DecompressBytes(Compression::kImage, ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, img);
}

TEST(ImageCodecTest, LossyIsSmallerAndClose) {
  ByteBuffer img = MakeImage(128, 128, 3, 6);
  CodecContext ctx;
  ctx.row_stride = 128 * 3;
  ctx.elem_size = 3;
  ctx.quality = 50;
  auto lossless = CompressBytes(Compression::kImage, ByteView(img), ctx);
  auto lossy = CompressBytes(Compression::kImageLossy, ByteView(img), ctx);
  ASSERT_TRUE(lossless.ok());
  ASSERT_TRUE(lossy.ok());
  EXPECT_LT(lossy->size(), lossless->size());
  auto back = DecompressBytes(Compression::kImageLossy, ByteView(*lossy));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), img.size());
  // Max per-pixel error bounded by the quantization step (shift=2 -> 4).
  int max_err = 0;
  for (size_t i = 0; i < img.size(); ++i) {
    max_err = std::max(max_err, std::abs(int((*back)[i]) - int(img[i])));
  }
  EXPECT_LE(max_err, 4);
}

TEST(ImageCodecTest, QualityLadderMonotoneSize) {
  ByteBuffer img = MakeImage(96, 96, 3, 8);
  CodecContext ctx;
  ctx.row_stride = 96 * 3;
  ctx.elem_size = 3;
  size_t prev = SIZE_MAX;
  for (int q : {95, 75, 55, 35, 10}) {
    ctx.quality = q;
    auto frame = CompressBytes(Compression::kImageLossy, ByteView(img), ctx);
    ASSERT_TRUE(frame.ok());
    EXPECT_LE(frame->size(), prev) << "quality " << q;
    prev = frame->size();
  }
}

TEST(ImageCodecTest, MissingContextStillRoundTrips) {
  ByteBuffer img = MakeImage(32, 32, 3, 9);
  auto frame = CompressBytes(Compression::kImage, ByteView(img));
  ASSERT_TRUE(frame.ok());
  auto back = DecompressBytes(Compression::kImage, ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, img);
}

TEST(ImageCodecTest, BadMagicIsCorruption) {
  ByteBuffer junk = {0x00, 0x01, 0x02};
  auto r = DecompressBytes(Compression::kImage, ByteView(junk));
  EXPECT_TRUE(r.status().IsCorruption());
}

// The span entry point is each codec's one decoder. Its output must match
// the reference codecs (LZ77 and both image modes) and, for the codecs with
// no reference, the raw input they compressed.
TEST(DecompressExactTest, MatchesReferenceForEveryCodec) {
  const Compression codecs[] = {Compression::kNone, Compression::kLz77,
                                Compression::kRle, Compression::kDelta,
                                Compression::kImage, Compression::kImageLossy};
  for (Compression c : codecs) {
    for (const char* profile : {"zeros", "random", "runs", "gradient"}) {
      ByteBuffer raw = MakeData(profile, 7 * 96 * 3 + 5, 17);
      CodecContext ctx;
      ctx.row_stride = 96 * 3;
      ctx.elem_size = c == Compression::kDelta ? 4 : 3;
      auto frame = GetCodec(c)->Compress(ByteView(raw), ctx);
      ASSERT_TRUE(frame.ok()) << frame.status();
      ByteBuffer expected = raw;
      if (c == Compression::kLz77 || c == Compression::kImage ||
          c == Compression::kImageLossy) {
        auto ref = reference::Decompress(c, ByteView(*frame));
        ASSERT_TRUE(ref.ok()) << ref.status();
        expected = std::move(ref).value();
      }
      ByteBuffer out(expected.size(), 0xab);
      Status st = GetCodec(c)->DecompressExact(ByteView(*frame), out);
      ASSERT_TRUE(st.ok()) << CompressionName(c) << " " << profile << ": "
                           << st;
      EXPECT_EQ(out, expected) << CompressionName(c) << " " << profile;
      // The ByteBuffer overload wraps the same decoder.
      ByteBuffer wrapped;
      ASSERT_TRUE(GetCodec(c)->DecompressInto(ByteView(*frame), wrapped).ok());
      EXPECT_EQ(wrapped, expected) << CompressionName(c) << " " << profile;
      auto declared = GetCodec(c)->DeclaredSize(ByteView(*frame));
      ASSERT_TRUE(declared.ok()) << declared.status();
      EXPECT_EQ(*declared, expected.size());
    }
  }
}

TEST(DecompressExactTest, OtherDeclaredSizeIsCorruptionBeforeAnyWrite) {
  const Compression codecs[] = {Compression::kNone, Compression::kLz77,
                                Compression::kRle, Compression::kDelta,
                                Compression::kImage, Compression::kImageLossy};
  ByteBuffer raw = MakeData("gradient", 4 * 64 * 3, 5);
  CodecContext ctx;
  ctx.row_stride = 64 * 3;
  ctx.elem_size = 3;
  for (Compression c : codecs) {
    auto frame = GetCodec(c)->Compress(ByteView(raw), ctx);
    ASSERT_TRUE(frame.ok()) << frame.status();
    for (size_t n : {raw.size() - 1, raw.size() + 1, size_t{0}}) {
      ByteBuffer out(n, 0xab);
      Status st = GetCodec(c)->DecompressExact(ByteView(*frame), out);
      EXPECT_TRUE(st.IsCorruption()) << CompressionName(c) << " n=" << n;
      EXPECT_EQ(out, ByteBuffer(n, 0xab))
          << CompressionName(c) << " wrote into a span of the wrong size";
    }
  }
}

TEST(RegistryTest, NamesRoundTrip) {
  for (Compression c :
       {Compression::kNone, Compression::kLz77, Compression::kRle,
        Compression::kDelta, Compression::kImage, Compression::kImageLossy}) {
    auto parsed = CompressionFromName(CompressionName(c));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, c);
    EXPECT_EQ(GetCodec(c)->id(), c);
  }
  EXPECT_EQ(*CompressionFromName("lz4"), Compression::kLz77);
  EXPECT_EQ(*CompressionFromName("jpeg"), Compression::kImageLossy);
  EXPECT_EQ(*CompressionFromName("png"), Compression::kImage);
  EXPECT_TRUE(CompressionFromName("brotli").status().IsInvalidArgument());
}

}  // namespace
}  // namespace dl::compress
