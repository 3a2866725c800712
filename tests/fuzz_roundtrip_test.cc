// Fuzz-ish robustness suite for the byte codecs and the varint/fixed coding
// layer: random buffers round-trip exactly, and random/truncated/corrupted
// frames must come back as Status::Corruption (or decode to *something*) —
// never crash, scan out of bounds, or trip UBSan. Hostile LZ77 and image
// frames must also get the same verdict from the fast codecs and the
// reference codecs (tests/reference_codec.cc): both fail, or both decode to
// the same bytes. Seeds and counts are fixed. Run it under
// DEEPLAKE_SANITIZE=undefined (scripts/run_sanitizers.sh) to get the actual
// UB checking; in a plain build it still catches crashes and wrong results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "reference_codec.h"
#include "util/bytes.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/envelope.h"
#include "util/json.h"
#include "util/rng.h"

namespace dl {
namespace {

using compress::Compression;
using compress::GetCodec;

ByteBuffer RandomBuffer(Rng& rng, size_t n) {
  ByteBuffer data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

ByteBuffer CompressibleBuffer(Rng& rng, size_t n) {
  // Mixed runs and noise: exercises both match and literal paths in lz77.
  ByteBuffer data;
  data.reserve(n);
  while (data.size() < n) {
    if (rng.Uniform(2) == 0) {
      uint8_t v = static_cast<uint8_t>(rng.Next());
      size_t run = 1 + rng.Uniform(300);
      for (size_t k = 0; k < run && data.size() < n; ++k) data.push_back(v);
    } else {
      size_t blob = 1 + rng.Uniform(40);
      for (size_t k = 0; k < blob && data.size() < n; ++k) {
        data.push_back(static_cast<uint8_t>(rng.Next()));
      }
    }
  }
  return data;
}

const Compression kByteCodecs[] = {Compression::kLz77, Compression::kRle,
                                   Compression::kDelta};

TEST(FuzzRoundTrip, RandomBuffersSurviveAllCodecs) {
  Rng rng(0xf022);
  for (int iter = 0; iter < 60; ++iter) {
    size_t n = rng.Uniform(4096);
    ByteBuffer raw = iter % 2 == 0 ? RandomBuffer(rng, n)
                                   : CompressibleBuffer(rng, n);
    for (Compression c : kByteCodecs) {
      auto frame = GetCodec(c)->Compress(ByteView(raw), {});
      ASSERT_TRUE(frame.ok()) << compress::CompressionName(c);
      auto back = GetCodec(c)->Decompress(ByteView(*frame));
      ASSERT_TRUE(back.ok()) << compress::CompressionName(c);
      ASSERT_EQ(*back, raw) << compress::CompressionName(c)
                            << " iter=" << iter << " n=" << n;
    }
  }
}

TEST(FuzzRoundTrip, GarbageFramesNeverCrash) {
  Rng rng(0xdead);
  for (int iter = 0; iter < 400; ++iter) {
    ByteBuffer junk = RandomBuffer(rng, rng.Uniform(512));
    for (Compression c : kByteCodecs) {
      // Any Status outcome is acceptable; surviving the call is the test.
      auto r = GetCodec(c)->Decompress(ByteView(junk));
      if (!r.ok()) continue;
    }
  }
}

TEST(FuzzRoundTrip, TruncatedFramesFailCleanly) {
  Rng rng(0x7a11);
  ByteBuffer raw = CompressibleBuffer(rng, 2048);
  for (Compression c : kByteCodecs) {
    auto frame = GetCodec(c)->Compress(ByteView(raw), {});
    ASSERT_TRUE(frame.ok());
    for (size_t cut = 0; cut < frame->size();
         cut += 1 + frame->size() / 37) {
      ByteBuffer truncated(frame->begin(), frame->begin() + cut);
      auto r = GetCodec(c)->Decompress(ByteView(truncated));
      // A truncated frame may only succeed if the cut happens to land on a
      // self-consistent prefix; it must never produce the full buffer from
      // fewer bytes or crash.
      if (r.ok()) {
        EXPECT_LE(r->size(), raw.size());
      }
    }
  }
}

TEST(FuzzRoundTrip, DeltaSurvivesInt64Extremes) {
  // INT64_MIN -> INT64_MAX steps overflow a naive signed delta; the codec
  // must round-trip them via mod-2^64 arithmetic (UBSan-clean).
  const int64_t values[] = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min(),
                            0,
                            std::numeric_limits<int64_t>::max(),
                            -1,
                            1};
  ByteBuffer raw(sizeof(values));
  std::memcpy(raw.data(), values, sizeof(values));
  compress::CodecContext ctx;
  ctx.elem_size = 8;
  auto frame = GetCodec(Compression::kDelta)->Compress(ByteView(raw), ctx);
  ASSERT_TRUE(frame.ok());
  auto back = GetCodec(Compression::kDelta)->Decompress(ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

TEST(FuzzRoundTrip, Lz77RejectsImplausibleRawSize) {
  // A tiny frame claiming an enormous raw size must be rejected up front
  // (bounded allocation), not attempted.
  ByteBuffer evil;
  PutVarint64(evil, std::numeric_limits<uint64_t>::max() / 2);
  auto r = GetCodec(Compression::kLz77)->Decompress(ByteView(evil));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

// The fast decoder and the reference decoder give `frame` the same
// verdict: both fail (the fast one with Corruption), or both succeed with
// identical bytes.
void ExpectSameVerdict(Compression c, ByteView frame, const std::string& what) {
  auto fast = GetCodec(c)->Decompress(frame);
  auto ref = compress::reference::Decompress(c, frame);
  ASSERT_EQ(fast.ok(), ref.ok())
      << what << ": fast " << fast.status() << ", reference " << ref.status();
  if (fast.ok()) {
    ASSERT_EQ(*fast, *ref) << what;
  } else {
    ASSERT_TRUE(fast.status().IsCorruption()) << what << ": " << fast.status();
  }
}

TEST(FuzzRoundTrip, Lz77CorruptedBytesFailOrMismatch) {
  Rng rng(0xbadf);
  ByteBuffer raw = CompressibleBuffer(rng, 1024);
  auto frame = GetCodec(Compression::kLz77)->Compress(ByteView(raw), {});
  ASSERT_TRUE(frame.ok());
  for (int iter = 0; iter < 200; ++iter) {
    ByteBuffer mutated = *frame;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    // A clean Corruption error or a decode, possibly of wrong bytes (lz77
    // frames carry no checksum; the chunk layer owns integrity) — but the
    // same outcome the reference decoder reaches.
    ExpectSameVerdict(Compression::kLz77, ByteView(mutated),
                      "iter=" + std::to_string(iter) +
                          " pos=" + std::to_string(pos));
  }
}

// A 24x20 RGB image frame plus the length of its image header (magic,
// mode, shift and the three geometry varints), where the embedded LZ77
// frame starts.
struct ImageFrame {
  ByteBuffer bytes;
  size_t header_len = 0;
};

ImageFrame MakeImageFrame(Rng& rng, Compression c) {
  const size_t h = 20, w = 24, ch = 3;
  ByteBuffer pixels(h * w * ch);
  for (size_t i = 0; i < pixels.size(); ++i) {
    size_t row = i / (w * ch), col = i % (w * ch);
    pixels[i] = static_cast<uint8_t>(row * 5 + col + rng.Uniform(4));
  }
  compress::CodecContext ctx;
  ctx.row_stride = w * ch;
  ctx.elem_size = ch;
  ctx.quality = 55;
  auto frame = GetCodec(c)->Compress(ByteView(pixels), ctx);
  EXPECT_TRUE(frame.ok());
  ImageFrame out;
  out.bytes = frame.ok() ? *frame : ByteBuffer{};
  Decoder dec{ByteView(out.bytes)};
  EXPECT_TRUE(dec.Skip(3).ok());
  for (int k = 0; k < 3; ++k) EXPECT_TRUE(dec.GetVarint64().ok());
  out.header_len = dec.position();
  return out;
}

const Compression kImageCodecs[] = {Compression::kImage,
                                    Compression::kImageLossy};

TEST(FuzzRoundTrip, ImageTruncationAtEveryCutAgreesWithReference) {
  Rng rng(0x1c07);
  for (Compression c : kImageCodecs) {
    ImageFrame frame = MakeImageFrame(rng, c);
    for (size_t cut = 0; cut <= frame.bytes.size(); ++cut) {
      ByteView torn(frame.bytes.data(), cut);
      ExpectSameVerdict(c, torn,
                        std::string(compress::CompressionName(c)) +
                            " cut=" + std::to_string(cut));
    }
  }
}

TEST(FuzzRoundTrip, ImageMutationsAgreeWithReference) {
  // 500 single-byte mutations per codec: half land in the image header or
  // the embedded LZ77 size varint, half anywhere in the LZ77 body.
  Rng rng(0x1a6e);
  for (Compression c : kImageCodecs) {
    ImageFrame frame = MakeImageFrame(rng, c);
    const size_t head = frame.header_len + 3;
    for (int iter = 0; iter < 500; ++iter) {
      ByteBuffer mutated = frame.bytes;
      size_t pos = iter % 2 == 0
                       ? rng.Uniform(head)
                       : head + rng.Uniform(mutated.size() - head);
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      ExpectSameVerdict(c, ByteView(mutated),
                        std::string(compress::CompressionName(c)) +
                            " iter=" + std::to_string(iter) +
                            " pos=" + std::to_string(pos));
    }
  }
}

TEST(FuzzRoundTrip, ForgedImageGeometryAgreesWithReference) {
  // Headers the encoder never writes, around a valid LZ77 frame of a
  // 120-byte residual plane.
  Rng rng(0x6e0);
  ByteBuffer residuals = CompressibleBuffer(rng, 120);
  auto lz = GetCodec(Compression::kLz77)->Compress(ByteView(residuals), {});
  ASSERT_TRUE(lz.ok());
  struct Forged {
    uint8_t mode, shift;
    uint64_t bpp, stride, raw_size;
  };
  const Forged kForged[] = {
      {0, 0, 5, 3, 120},    // bpp > stride
      {1, 2, 9, 4, 120},    // bpp > stride, lossy
      {0, 0, 3, 0, 120},    // zero stride
      {0, 0, 0, 12, 120},   // zero bpp
      {0, 0, 3, 7, 120},    // raw_size % stride != 0
      {1, 3, 4, 50, 120},   // partial last row, lossy
      {0, 0, 3, 1000, 120}, // stride past the plane
      {0, 0, 3, 12, 119},   // raw_size differs from the LZ77 frame
      {0, 0, 3, 12, 121},
      {0, 0, 3, UINT64_MAX, 120},
      {0, 0, UINT64_MAX, 12, 120},
      {1, 7, 3, 12, 120},   // largest shift
      {1, 8, 3, 12, 120},   // shift past a byte
      {1, 200, 3, 12, 120},
      {0, 200, 3, 12, 120}, // lossless ignores the shift
      {2, 3, 3, 12, 120},   // unknown mode: not dequantized
      {1, 0, 3, 12, 120},
  };
  for (const Forged& f : kForged) {
    for (Compression c : kImageCodecs) {
      ByteBuffer frame = {'I', f.mode, f.shift};
      PutVarint64(frame, f.bpp);
      PutVarint64(frame, f.stride);
      PutVarint64(frame, f.raw_size);
      AppendBytes(frame, ByteView(*lz));
      ExpectSameVerdict(c, ByteView(frame),
                        "mode=" + std::to_string(f.mode) +
                            " shift=" + std::to_string(f.shift) +
                            " bpp=" + std::to_string(f.bpp) +
                            " stride=" + std::to_string(f.stride) +
                            " raw=" + std::to_string(f.raw_size));
    }
  }
}

TEST(CodingRoundTrip, VarintsAcrossTheRange) {
  Rng rng(0xc0de);
  std::vector<uint64_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next());
  ByteBuffer buf;
  for (uint64_t v : values) PutVarint64(buf, v);
  Decoder dec{ByteView(buf)};
  for (uint64_t v : values) {
    auto r = dec.GetVarint64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
}

TEST(CodingRoundTrip, SignedVarintsIncludingExtremes) {
  Rng rng(0x51ed);
  std::vector<int64_t> values = {0,
                                 -1,
                                 1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 -64,
                                 63,
                                 -65,
                                 64};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  ByteBuffer buf;
  for (int64_t v : values) PutVarintSigned64(buf, v);
  Decoder dec{ByteView(buf)};
  for (int64_t v : values) {
    auto r = dec.GetVarintSigned64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
}

TEST(CodingRoundTrip, ZigZagIsAnInvolutionOnRandomValues) {
  Rng rng(0x2182);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingRoundTrip, FixedWidthValues) {
  Rng rng(0xf1de);
  ByteBuffer buf;
  std::vector<uint64_t> v64;
  std::vector<uint32_t> v32;
  std::vector<uint16_t> v16;
  for (int i = 0; i < 100; ++i) {
    v64.push_back(rng.Next());
    v32.push_back(static_cast<uint32_t>(rng.Next()));
    v16.push_back(static_cast<uint16_t>(rng.Next()));
  }
  for (size_t i = 0; i < v64.size(); ++i) {
    PutFixed64(buf, v64[i]);
    PutFixed32(buf, v32[i]);
    PutFixed16(buf, v16[i]);
  }
  Decoder dec{ByteView(buf)};
  for (size_t i = 0; i < v64.size(); ++i) {
    ASSERT_EQ(*dec.GetFixed64(), v64[i]);
    ASSERT_EQ(*dec.GetFixed32(), v32[i]);
    ASSERT_EQ(*dec.GetFixed16(), v16[i]);
  }
}

TEST(CodingRoundTrip, TruncatedVarintsFailCleanly) {
  ByteBuffer buf;
  PutVarint64(buf, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteBuffer truncated(buf.begin(), buf.begin() + cut);
    Decoder dec{ByteView(truncated)};
    EXPECT_FALSE(dec.GetVarint64().ok());
  }
}

TEST(CodingRoundTrip, OverlongVarintIsRejected) {
  // 11 continuation bytes exceed the maximum 10-byte varint64 encoding.
  ByteBuffer buf(11, 0x80);
  Decoder dec{ByteView(buf)};
  EXPECT_FALSE(dec.GetVarint64().ok());
}

// ---------------------------------------------------------------------------
// Manifest envelopes (DESIGN.md §9): wrap/unwrap round-trips exactly;
// truncation, bit flips and garbage always come back Status::Corruption —
// the failure modes crash recovery and dlfsck rely on detecting.
// ---------------------------------------------------------------------------

TEST(EnvelopeFuzz, RandomPayloadsRoundTrip) {
  Rng rng(0xe77e);
  for (int iter = 0; iter < 60; ++iter) {
    ByteBuffer payload = RandomBuffer(rng, rng.Uniform(2048));
    ByteBuffer framed = EnvelopeWrap(ByteView(payload));
    ASSERT_EQ(framed.size(), payload.size() + kEnvelopeOverhead);
    auto back = EnvelopeUnwrap(Slice::Borrowed(ByteView(framed)));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, payload);
    // The raw-passthrough reader must agree on framed input.
    auto raw = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(framed)));
    ASSERT_TRUE(raw.ok()) << raw.status();
    EXPECT_EQ(*raw, payload);
  }
}

TEST(EnvelopeFuzz, EveryTruncationFailsCleanly) {
  ByteBuffer framed = EnvelopeWrap(ByteView(BufferFromString(
      "{\"keys\": [\"labels/chunks/c0\", \"labels/tensor_meta.json\"]}")));
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    ByteBuffer torn(framed.begin(), framed.begin() + cut);
    auto s = EnvelopeUnwrap(Slice::Borrowed(ByteView(torn))).status();
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut << ": " << s;
    // Once the magic is intact the torn frame must not pass for legacy
    // raw content either.
    if (cut >= 4) {
      EXPECT_TRUE(EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(torn))).status().IsCorruption())
          << "cut=" << cut;
    }
  }
}

TEST(EnvelopeFuzz, EveryBitFlipIsDetected) {
  ByteBuffer payload = BufferFromString("commit record: parent, branch, ts");
  ByteBuffer framed = EnvelopeWrap(ByteView(payload));
  for (size_t pos = 0; pos < framed.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      ByteBuffer flipped = framed;
      flipped[pos] ^= static_cast<uint8_t>(1u << bit);
      auto got = EnvelopeUnwrap(Slice::Borrowed(ByteView(flipped)));
      // A flip in the length field may alias to a plausible length only if
      // the CRC also matches — CRC-32C makes that impossible for one bit.
      EXPECT_TRUE(got.status().IsCorruption())
          << "pos=" << pos << " bit=" << bit << ": " << got.status();
    }
  }
}

TEST(EnvelopeFuzz, GarbageNeverCrashes) {
  Rng rng(0x6a5b);
  for (int iter = 0; iter < 200; ++iter) {
    ByteBuffer junk = RandomBuffer(rng, rng.Uniform(256));
    auto strict = EnvelopeUnwrap(Slice::Borrowed(ByteView(junk)));
    if (strict.ok()) {
      // Astronomically unlikely (needs magic + matching CRC); accept but
      // sanity-check the claimed length.
      EXPECT_EQ(strict->size() + kEnvelopeOverhead, junk.size());
    }
    // Without the magic, the tolerant reader passes junk through verbatim
    // (legacy raw manifests); with it, verification still applies.
    auto tolerant = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(junk)));
    bool has_magic = junk.size() >= 4 && junk[0] == 'D' && junk[1] == 'L' &&
                     junk[2] == 'E' && junk[3] == '1';
    if (!has_magic) {
      ASSERT_TRUE(tolerant.ok()) << tolerant.status();
      EXPECT_EQ(*tolerant, junk);
    }
  }
}

TEST(EnvelopeFuzz, FuzzedManifestJsonFailsCleanly) {
  // The ReadManifest path: unwrap, then parse. Whatever the fuzzer does to
  // the payload, the reader must end in Corruption (envelope broken) or
  // InvalidArgument (envelope fine, JSON broken) — never crash or succeed
  // with garbage.
  Rng rng(0x9d0f);
  const std::string keyset =
      "{\"keys\": [\"labels/chunks/c0\"], \"commit\": \"abc123\"}";
  for (int iter = 0; iter < 300; ++iter) {
    ByteBuffer framed = EnvelopeWrap(ByteView(keyset));
    switch (iter % 3) {
      case 0: {  // bit flip anywhere in the frame
        size_t pos = rng.Uniform(static_cast<uint64_t>(framed.size()));
        framed[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
        break;
      }
      case 1: {  // truncate
        framed.resize(rng.Uniform(static_cast<uint64_t>(framed.size())));
        break;
      }
      default: {  // valid envelope around fuzzed JSON text
        std::string broken = keyset;
        size_t pos = rng.Uniform(static_cast<uint64_t>(broken.size()));
        broken[pos] = static_cast<char>(rng.Next());
        framed = EnvelopeWrap(ByteView(broken));
        break;
      }
    }
    auto payload = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(framed)));
    if (!payload.ok()) {
      EXPECT_TRUE(payload.status().IsCorruption()) << payload.status();
      continue;
    }
    auto j = Json::Parse(ByteView(*payload).ToStringView());
    if (j.ok()) {
      // The mutation happened to keep the JSON valid (e.g. flipped a char
      // inside a string literal); that is fine — CRC already vouched for
      // the bytes.
      continue;
    }
    EXPECT_TRUE(j.status().IsInvalidArgument() || j.status().IsCorruption())
        << j.status();
  }
}

// ---------------------------------------------------------------------------
// CRC-32C hardware/software parity
// ---------------------------------------------------------------------------
// The dispatched backend (SSE4.2 / ARMv8-CRC / software, whichever this CPU
// selected) must agree bit-for-bit with the always-available slice-by-8
// implementation at every length, alignment and split point — a wrong tail
// loop or misaligned-word fixup in the hardware path would silently corrupt
// every chunk checksum written on that machine.

TEST(Crc32cParityFuzz, RandomLengthsAndAlignments) {
  Rng rng(0xc32c);
  for (int iter = 0; iter < 400; ++iter) {
    // Slack in front so the view can start at any alignment 0..15.
    size_t align = rng.Uniform(16);
    size_t len = rng.Uniform(iter < 200 ? 64 : 8192);  // dense small sizes
    ByteBuffer backing = RandomBuffer(rng, align + len);
    ByteView view(backing.data() + align, len);
    uint32_t dispatched = Crc32c(view);
    // Crc32cExtendSoftware follows the same resumable convention as
    // Crc32cExtend: seed 0, feed back the previous return value.
    uint32_t software = Crc32cExtendSoftware(0, view);
    EXPECT_EQ(dispatched, software)
        << "len=" << len << " align=" << align << " iter=" << iter;
  }
}

TEST(Crc32cParityFuzz, EverySmallLengthEveryAlignment) {
  // Exhaustive over the region where tail/prefix handling lives: lengths
  // 0..32 at alignments 0..15 (the 8-byte word loop kicks in above ~8).
  Rng rng(0x51ab);
  ByteBuffer backing = RandomBuffer(rng, 64);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len + align <= backing.size() && len <= 32; ++len) {
      ByteView view(backing.data() + align, len);
      EXPECT_EQ(Crc32c(view), Crc32cExtendSoftware(0, view))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32cParityFuzz, RandomSplitPointsCompose) {
  // Extending across arbitrary split points must equal the one-shot CRC on
  // both backends — partial updates are how the chunk writer streams.
  Rng rng(0x5817);
  for (int iter = 0; iter < 200; ++iter) {
    size_t len = 1 + rng.Uniform(4096);
    ByteBuffer data = RandomBuffer(rng, len);
    uint32_t whole_hw = Crc32c(ByteView(data));
    uint32_t whole_sw = Crc32cExtendSoftware(0, ByteView(data));
    ASSERT_EQ(whole_hw, whole_sw);
    // 1-3 random cuts.
    size_t cuts = 1 + rng.Uniform(3);
    std::vector<size_t> points{0, len};
    for (size_t c = 0; c < cuts; ++c) points.push_back(rng.Uniform(len + 1));
    std::sort(points.begin(), points.end());
    uint32_t hw = 0, sw = 0;
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      ByteView part(data.data() + points[i], points[i + 1] - points[i]);
      hw = Crc32cExtend(hw, part);
      sw = Crc32cExtendSoftware(sw, part);
    }
    EXPECT_EQ(hw, whole_hw) << "iter=" << iter;
    EXPECT_EQ(sw, whole_sw) << "iter=" << iter;
  }
}

TEST(Crc32cParityFuzz, BackendNameIsKnown) {
  std::string_view b = Crc32cBackend();
  EXPECT_TRUE(b == "sse4.2" || b == "armv8-crc" || b == "software") << b;
}

}  // namespace
}  // namespace dl
