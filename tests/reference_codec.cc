// The LZ77 and image codecs as they were before the pointer-based rewrite,
// kept verbatim apart from two changes: they drop the Codec base class (the
// image codec's entropy stage calls the reference LZ77, not the fast one),
// and the image decoder rejects a lossy frame whose quantization shift is
// above 7, as the fast one does. The original shifted an int by up to 255
// bits there, which is undefined from 32 on.

#include "reference_codec.h"

#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress::reference {
namespace {

// ---------------------------------------------------------------------------
// LZ77
// ---------------------------------------------------------------------------

constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

void PutLen(ByteBuffer& out, size_t extra) {
  // Writes the extension bytes for a nibble that was 15.
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<uint8_t>(extra));
}

void EmitSequence(ByteBuffer& out, const uint8_t* lit_start, size_t lit_len,
                  size_t match_len, size_t offset) {
  uint8_t lit_nibble = lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
  uint8_t match_nibble = 0;
  bool has_match = match_len >= kMinMatch;
  if (has_match) {
    size_t ml = match_len - kMinMatch;
    match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
  }
  out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutLen(out, lit_len - 15);
  out.insert(out.end(), lit_start, lit_start + lit_len);
  if (has_match) {
    out.push_back(static_cast<uint8_t>(offset));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15) PutLen(out, match_len - kMinMatch - 15);
  }
}

class Lz77Codec final {
 public:
  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const {
    ByteBuffer out;
    out.reserve(raw.size() / 2 + 16);
    PutVarint64(out, raw.size());
    const uint8_t* base = raw.data();
    const size_t n = raw.size();
    if (n == 0) return out;

    std::vector<uint32_t> table(kHashSize, UINT32_MAX);
    size_t i = 0;
    size_t anchor = 0;  // start of pending literals
    const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
    while (i + kMinMatch <= n && i < match_limit) {
      uint32_t h = Hash4(base + i);
      uint32_t cand = table[h];
      table[h] = static_cast<uint32_t>(i);
      if (cand != UINT32_MAX && i - cand <= kMaxOffset &&
          Load32(base + cand) == Load32(base + i)) {
        // Extend the match forward.
        size_t match_len = kMinMatch;
        while (i + match_len < n &&
               base[cand + match_len] == base[i + match_len]) {
          ++match_len;
        }
        EmitSequence(out, base + anchor, i - anchor, match_len, i - cand);
        // Index a couple of positions inside the match to keep the table
        // warm without hashing every byte.
        size_t end = i + match_len;
        for (size_t p = i + 1; p + kMinMatch <= end && p + kMinMatch <= n;
             p += match_len / 4 + 1) {
          table[Hash4(base + p)] = static_cast<uint32_t>(p);
        }
        i = end;
        anchor = i;
      } else {
        ++i;
      }
    }
    // Trailing literals.
    if (anchor < n) {
      EmitSequence(out, base + anchor, n - anchor, 0, 0);
    }
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const {
    out.clear();
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    // raw_size comes off the wire: sanity-bound it before allocating.
    // Each frame byte can contribute at most 255 output bytes (a match
    // length extension byte of 255), so anything beyond that ratio is a
    // corrupt header — reject it instead of attempting a huge reserve.
    if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
      return Status::Corruption("lz77: raw size implausible for frame");
    }
    out.reserve(static_cast<size_t>(raw_size));
    while (out.size() < raw_size) {
      DL_ASSIGN_OR_RETURN(uint8_t token, dec.GetByte());
      size_t lit_len = token >> 4;
      if (lit_len == 15) {
        while (true) {
          DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
          lit_len += b;
          if (b != 255) break;
        }
      }
      DL_ASSIGN_OR_RETURN(ByteView lits, dec.GetBytes(lit_len));
      out.insert(out.end(), lits.begin(), lits.end());
      if (out.size() >= raw_size) break;  // final literal-only sequence
      size_t match_len = token & 0x0f;
      DL_ASSIGN_OR_RETURN(uint8_t o0, dec.GetByte());
      DL_ASSIGN_OR_RETURN(uint8_t o1, dec.GetByte());
      size_t offset = static_cast<size_t>(o0) | (static_cast<size_t>(o1) << 8);
      if (match_len == 15) {
        while (true) {
          DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
          match_len += b;
          if (b != 255) break;
        }
      }
      match_len += kMinMatch;
      if (offset == 0 || offset > out.size()) {
        return Status::Corruption("lz77: bad match offset");
      }
      if (out.size() + match_len > raw_size) {
        return Status::Corruption("lz77: match overruns raw size");
      }
      // Byte-wise copy: handles overlapping matches (offset < match_len).
      size_t src = out.size() - offset;
      for (size_t k = 0; k < match_len; ++k) out.push_back(out[src + k]);
    }
    if (out.size() != raw_size) {
      return Status::Corruption("lz77: frame shorter than raw size");
    }
    return Status::OK();
  }
};

const Lz77Codec kLz77;

// ---------------------------------------------------------------------------
// Image (Paeth filter + LZ77)
// ---------------------------------------------------------------------------

constexpr uint8_t kMagic = 'I';

// Residual plane via Paeth prediction. `stride` is bytes per row, `bpp`
// bytes per pixel (the "left" neighbour distance).
ByteBuffer FilterPlane(ByteView raw, size_t stride, size_t bpp) {
  ByteBuffer out(raw.size());
  const uint8_t* p = raw.data();
  size_t n = raw.size();
  for (size_t i = 0; i < n; ++i) {
    size_t col = i % stride;
    uint8_t left = col >= bpp ? p[i - bpp] : 0;
    uint8_t up = i >= stride ? p[i - stride] : 0;
    uint8_t upleft = (i >= stride && col >= bpp) ? p[i - stride - bpp] : 0;
    out[i] = static_cast<uint8_t>(p[i] - Paeth(left, up, upleft));
  }
  return out;
}

void UnfilterPlane(ByteBuffer& data, size_t stride, size_t bpp) {
  size_t n = data.size();
  for (size_t i = 0; i < n; ++i) {
    size_t col = i % stride;
    uint8_t left = col >= bpp ? data[i - bpp] : 0;
    uint8_t up = i >= stride ? data[i - stride] : 0;
    uint8_t upleft = (i >= stride && col >= bpp) ? data[i - stride - bpp] : 0;
    data[i] = static_cast<uint8_t>(data[i] + Paeth(left, up, upleft));
  }
}

int ShiftForQuality(int quality) {
  if (quality <= 0) quality = 75;  // default
  if (quality > 100) quality = 100;
  if (quality >= 90) return 0;
  if (quality >= 70) return 1;
  if (quality >= 50) return 2;
  if (quality >= 30) return 3;
  return 4;
}

class ImageCodec {
 public:
  explicit ImageCodec(bool lossy) : lossy_(lossy) {}

  Result<ByteBuffer> Compress(ByteView raw, const CodecContext& ctx) const {
    size_t stride = ctx.row_stride > 0 && ctx.row_stride <= raw.size()
                        ? ctx.row_stride
                        : (raw.size() > 0 ? raw.size() : 1);
    size_t bpp = ctx.elem_size > 0 ? ctx.elem_size : 1;
    if (bpp > stride) bpp = stride;
    int shift = lossy_ ? ShiftForQuality(ctx.quality) : 0;

    ByteBuffer plane;
    ByteView source = raw;
    if (shift > 0) {
      plane.resize(raw.size());
      for (size_t i = 0; i < raw.size(); ++i) plane[i] = raw[i] >> shift;
      source = ByteView(plane);
    }
    ByteBuffer residuals = FilterPlane(source, stride, bpp);

    ByteBuffer out;
    out.push_back(kMagic);
    out.push_back(lossy_ ? 1 : 0);
    out.push_back(static_cast<uint8_t>(shift));
    PutVarint64(out, bpp);
    PutVarint64(out, stride);
    PutVarint64(out, raw.size());
    DL_ASSIGN_OR_RETURN(ByteBuffer lz, kLz77.Compress(ByteView(residuals), {}));
    AppendBytes(out, ByteView(lz));
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const {
    out.clear();
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
    if (magic != kMagic) return Status::Corruption("image: bad magic");
    DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint8_t shift, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint64_t bpp, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(uint64_t stride, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    if (stride == 0 || bpp == 0) {
      return Status::Corruption("image: zero stride");
    }
    if (mode == 1 && shift > 7) {
      return Status::Corruption("image: quantization shift out of range");
    }
    DL_ASSIGN_OR_RETURN(ByteView rest, dec.GetBytes(dec.remaining()));
    DL_RETURN_IF_ERROR(kLz77.DecompressInto(rest, out));
    if (out.size() != raw_size) {
      return Status::Corruption("image: residual plane size mismatch");
    }
    UnfilterPlane(out, stride, bpp);
    if (mode == 1 && shift > 0) {
      uint8_t center = static_cast<uint8_t>(1u << (shift - 1));
      for (auto& b : out) {
        b = static_cast<uint8_t>((b << shift) | center);
      }
    }
    return Status::OK();
  }

 private:
  bool lossy_;
};

const ImageCodec kImage(/*lossy=*/false);
const ImageCodec kImageLossy(/*lossy=*/true);

}  // namespace

uint8_t Paeth(uint8_t left, uint8_t up, uint8_t upleft) {
  int p = static_cast<int>(left) + up - upleft;
  int pa = std::abs(p - left);
  int pb = std::abs(p - up);
  int pc = std::abs(p - upleft);
  if (pa <= pb && pa <= pc) return left;
  if (pb <= pc) return up;
  return upleft;
}

Result<ByteBuffer> Compress(Compression c, ByteView raw,
                            const CodecContext& ctx) {
  switch (c) {
    case Compression::kLz77:
      return kLz77.Compress(raw, ctx);
    case Compression::kImage:
      return kImage.Compress(raw, ctx);
    case Compression::kImageLossy:
      return kImageLossy.Compress(raw, ctx);
    default:
      return Status::InvalidArgument("reference codec: no reference for " +
                                     std::string(CompressionName(c)));
  }
}

Result<ByteBuffer> Decompress(Compression c, ByteView frame) {
  ByteBuffer out;
  switch (c) {
    case Compression::kLz77:
      DL_RETURN_IF_ERROR(kLz77.DecompressInto(frame, out));
      return out;
    case Compression::kImage:
      DL_RETURN_IF_ERROR(kImage.DecompressInto(frame, out));
      return out;
    case Compression::kImageLossy:
      DL_RETURN_IF_ERROR(kImageLossy.DecompressInto(frame, out));
      return out;
    default:
      return Status::InvalidArgument("reference codec: no reference for " +
                                     std::string(CompressionName(c)));
  }
}

}  // namespace dl::compress::reference
