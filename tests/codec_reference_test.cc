// Differential test: the fast LZ77 and image codecs against the byte-at-a-
// time reference codecs in reference_codec.cc. Every frame the fast encoder
// writes must equal the reference frame byte for byte, and every frame must
// decode to the same bytes on both sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "reference_codec.h"
#include "sim/workload.h"
#include "util/coding.h"
#include "util/rng.h"

namespace dl::compress {
namespace {

// Smooth pixels with noise: row/column gradients give the Paeth predictor
// something to predict and the noise keeps literals in the LZ77 stream.
ByteBuffer SmoothImage(Rng& rng, size_t n, size_t stride, int noise) {
  ByteBuffer data(n);
  size_t phase = rng.Uniform(256);
  for (size_t i = 0; i < n; ++i) {
    size_t row = i / stride, col = i % stride;
    int v = static_cast<int>((row * 3 + col * 2 + phase) & 0xff);
    if (noise > 0) v += static_cast<int>(rng.Uniform(2 * noise + 1)) - noise;
    data[i] = static_cast<uint8_t>(v);
  }
  return data;
}

ByteBuffer RandomBytes(Rng& rng, size_t n) {
  ByteBuffer data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

// Quality values that select each quantization shift 0..4, plus 0 (the
// default, shift 1) and out-of-range values the encoder clamps.
const int kQualities[] = {95, 75, 55, 35, 10, 0, 101, -5};

void ExpectSameFrames(Compression c, ByteView raw, const CodecContext& ctx,
                      const std::string& what) {
  auto fast = CompressBytes(c, raw, ctx);
  auto ref = reference::Compress(c, raw, ctx);
  ASSERT_TRUE(fast.ok()) << what << ": " << fast.status();
  ASSERT_TRUE(ref.ok()) << what << ": " << ref.status();
  ASSERT_EQ(*fast, *ref) << what << ": encoder output differs";
  auto fast_back = DecompressBytes(c, ByteView(*fast));
  auto ref_back = reference::Decompress(c, ByteView(*ref));
  ASSERT_TRUE(fast_back.ok()) << what << ": " << fast_back.status();
  ASSERT_TRUE(ref_back.ok()) << what << ": " << ref_back.status();
  ASSERT_EQ(*fast_back, *ref_back) << what << ": decoder output differs";
  if (c != Compression::kImageLossy) {
    ASSERT_EQ(*fast_back, raw.ToBuffer()) << what << ": not lossless";
  }
}

std::string Describe(Compression c, size_t n, const CodecContext& ctx) {
  return std::string(CompressionName(c)) + " n=" + std::to_string(n) +
         " stride=" + std::to_string(ctx.row_stride) +
         " bpp=" + std::to_string(ctx.elem_size) +
         " q=" + std::to_string(ctx.quality);
}

TEST(CodecReferenceTest, RandomImageShapesEveryBppEveryQuality) {
  Rng rng(0x1a9e);
  for (int iter = 0; iter < 60; ++iter) {
    size_t h = 1 + rng.Uniform(40), w = 1 + rng.Uniform(40);
    uint32_t bpp = static_cast<uint32_t>(1 + iter % 4);
    CodecContext ctx;
    ctx.row_stride = w * bpp;
    ctx.elem_size = bpp;
    ByteBuffer raw = SmoothImage(rng, h * w * bpp, ctx.row_stride,
                                 static_cast<int>(rng.Uniform(6)));
    ExpectSameFrames(Compression::kImage, ByteView(raw), ctx,
                     Describe(Compression::kImage, raw.size(), ctx));
    for (int q : kQualities) {
      ctx.quality = q;
      ExpectSameFrames(Compression::kImageLossy, ByteView(raw), ctx,
                       Describe(Compression::kImageLossy, raw.size(), ctx));
    }
  }
}

TEST(CodecReferenceTest, OddGeometries) {
  // Row stride 0 (the whole buffer is one row), a stride past the buffer,
  // a partial last row, strides that are not a multiple of the pixel
  // width, pixels wider than the row, a zero pixel width, and pixel widths
  // past the templated 1..4.
  struct Geometry {
    size_t n;
    uint64_t stride;
    uint32_t bpp;
  };
  const Geometry kGeometries[] = {
      {0, 0, 3},     {1, 0, 1},    {5, 0, 3},     {300, 0, 3},
      {300, 900, 3}, {301, 30, 3}, {299, 30, 3},  {310, 10, 3},
      {310, 10, 4},  {77, 7, 2},   {64, 2, 3},    {64, 3, 4},
      {90, 9, 0},    {250, 25, 5}, {240, 24, 8},  {256, 16, 16},
      {100, 1, 1},   {100, 1, 4},  {1000, 33, 3}, {17, 17, 3},
  };
  Rng rng(0x9e0);
  for (const Geometry& g : kGeometries) {
    CodecContext ctx;
    ctx.row_stride = g.stride;
    ctx.elem_size = g.bpp;
    for (int noise : {0, 3, 200}) {
      ByteBuffer raw = SmoothImage(rng, g.n, g.stride > 0 ? g.stride : 1,
                                   noise);
      ctx.quality = 0;
      ExpectSameFrames(Compression::kImage, ByteView(raw), ctx,
                       Describe(Compression::kImage, g.n, ctx));
      for (int q : kQualities) {
        ctx.quality = q;
        ExpectSameFrames(Compression::kImageLossy, ByteView(raw), ctx,
                         Describe(Compression::kImageLossy, g.n, ctx));
      }
    }
  }
}

TEST(CodecReferenceTest, BenchmarkSizedImages) {
  // The 250x250x3 samples the loader benchmarks decode.
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 7);
  for (uint64_t i = 0; i < 3; ++i) {
    sim::SampleSpec s = gen.Generate(i);
    CodecContext ctx;
    ctx.row_stride = s.shape[1] * s.shape[2];
    ctx.elem_size = static_cast<uint32_t>(s.shape[2]);
    ExpectSameFrames(Compression::kImage, ByteView(s.pixels), ctx,
                     Describe(Compression::kImage, s.pixels.size(), ctx));
    for (int q : {95, 75, 10}) {
      ctx.quality = q;
      ExpectSameFrames(Compression::kImageLossy, ByteView(s.pixels), ctx,
                       Describe(Compression::kImageLossy, s.pixels.size(),
                                ctx));
    }
  }
}

// Periodic runs of period 1..8 between random stretches: the encoder finds
// matches whose offset is shorter than their length, and the decoder must
// expand them byte by byte.
ByteBuffer PeriodicBuffer(Rng& rng, size_t n) {
  ByteBuffer data;
  data.reserve(n);
  while (data.size() < n) {
    size_t period = 1 + rng.Uniform(8);
    ByteBuffer pattern = RandomBytes(rng, period);
    size_t run = rng.Uniform(2000);
    for (size_t k = 0; k < run && data.size() < n; ++k) {
      data.push_back(pattern[k % period]);
    }
    size_t noise = rng.Uniform(30);
    for (size_t k = 0; k < noise && data.size() < n; ++k) {
      data.push_back(static_cast<uint8_t>(rng.Next()));
    }
  }
  return data;
}

TEST(CodecReferenceTest, Lz77RandomRunHeavyAndPeriodicBuffers) {
  Rng rng(0x177);
  for (int iter = 0; iter < 90; ++iter) {
    size_t n = iter < 30 ? rng.Uniform(64) : rng.Uniform(20000);
    ByteBuffer raw;
    switch (iter % 3) {
      case 0:
        raw = RandomBytes(rng, n);
        break;
      case 1:
        raw = PeriodicBuffer(rng, n);
        break;
      default:
        raw = SmoothImage(rng, n, 1 + rng.Uniform(64), 1);
        break;
    }
    ExpectSameFrames(Compression::kLz77, ByteView(raw), {},
                     "lz77 iter=" + std::to_string(iter) +
                         " n=" + std::to_string(n));
  }
}

// Appends one LZ77 length extension (the bytes after a nibble of 15).
void PutExtension(ByteBuffer& out, size_t extra) {
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<uint8_t>(extra));
}

TEST(CodecReferenceTest, Lz77HandBuiltFramesWithShortOffsets) {
  // Frames the encoder would not write: every offset 1..8 against matches
  // up to 600 bytes, at any position, and frames that end on a match.
  Rng rng(0x0ff5);
  for (int iter = 0; iter < 300; ++iter) {
    ByteBuffer body;
    size_t produced = 0;
    int sequences = 1 + static_cast<int>(rng.Uniform(12));
    for (int s = 0; s < sequences; ++s) {
      size_t lit = rng.Uniform(4) == 0 ? rng.Uniform(300) : rng.Uniform(9);
      if (produced + lit == 0) lit = 1 + rng.Uniform(8);
      size_t avail = produced + lit;
      size_t offset = rng.Uniform(3) == 0 ? 1 + rng.Uniform(avail)
                                          : 1 + rng.Uniform(std::min<size_t>(
                                                    8, avail));
      size_t match = 4 + (rng.Uniform(3) == 0 ? rng.Uniform(600)
                                              : rng.Uniform(20));
      uint8_t lit_nib = lit >= 15 ? 15 : static_cast<uint8_t>(lit);
      uint8_t match_nib =
          match - 4 >= 15 ? 15 : static_cast<uint8_t>(match - 4);
      body.push_back(static_cast<uint8_t>((lit_nib << 4) | match_nib));
      if (lit_nib == 15) PutExtension(body, lit - 15);
      ByteBuffer lits = RandomBytes(rng, lit);
      body.insert(body.end(), lits.begin(), lits.end());
      body.push_back(static_cast<uint8_t>(offset));
      body.push_back(static_cast<uint8_t>(offset >> 8));
      if (match_nib == 15) PutExtension(body, match - 4 - 15);
      produced += lit + match;
    }
    bool trailing_literals = iter % 2 == 0;
    if (trailing_literals) {
      size_t lit = 1 + rng.Uniform(20);
      body.push_back(static_cast<uint8_t>((lit >= 15 ? 15 : lit) << 4));
      if (lit >= 15) PutExtension(body, lit - 15);
      ByteBuffer lits = RandomBytes(rng, lit);
      body.insert(body.end(), lits.begin(), lits.end());
      produced += lit;
    }
    ByteBuffer frame;
    PutVarint64(frame, produced);
    frame.insert(frame.end(), body.begin(), body.end());
    auto fast = DecompressBytes(Compression::kLz77, ByteView(frame));
    auto ref = reference::Decompress(Compression::kLz77, ByteView(frame));
    ASSERT_TRUE(ref.ok()) << "iter=" << iter << ": " << ref.status();
    ASSERT_TRUE(fast.ok()) << "iter=" << iter << ": " << fast.status();
    ASSERT_EQ(*fast, *ref) << "iter=" << iter;
    ASSERT_EQ(fast->size(), produced);
  }
}

}  // namespace
}  // namespace dl::compress
