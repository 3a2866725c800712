// Predictive image codec — the repo's stand-in for PNG (lossless mode) and
// JPEG (lossy mode). See DESIGN.md §1.
//
// Pipeline: [quantize (lossy only)] -> per-row Paeth prediction residuals
// -> LZ77 entropy stage. The frame is self-describing:
//   u8 magic 'I', u8 mode (0 lossless / 1 lossy), u8 quant_shift,
//   varint pixel_stride (channels), varint row_stride (width*channels),
//   varint raw_size, then an embedded LZ77 frame of the residual plane.
//
// Both directions run row by row: row 0 and each row's first pixel have
// their own loops, so the Paeth loop does no per-byte column test, and the
// pixel width is a compile-time constant for 1..4 bytes. Quantizing is fused
// into the filter pass and dequantizing into the unfilter pass. The
// byte-at-a-time original is the test oracle (tests/reference_codec.cc).

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "compress/codec.h"
#include "compress/codec_internal.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {
namespace {

constexpr uint8_t kMagic = 'I';

// A quantization shift above 7 would keep no bit of a pixel; the encoder
// writes 0..4.
constexpr uint8_t kMaxShift = 7;

// Calls `fn(std::integral_constant<size_t, k>)` with k = bpp for pixel
// widths 1..4, so the row loops below see the left-neighbour distance as a
// constant, and with k = 0 (distance read at run time) for any other width.
template <typename Fn>
void WithPixelWidth(size_t bpp, Fn&& fn) {
  switch (bpp) {
    case 1:
      return fn(std::integral_constant<size_t, 1>{});
    case 2:
      return fn(std::integral_constant<size_t, 2>{});
    case 3:
      return fn(std::integral_constant<size_t, 3>{});
    case 4:
      return fn(std::integral_constant<size_t, 4>{});
    default:
      return fn(std::integral_constant<size_t, 0>{});
  }
}

// Paeth residuals of one row of `len` bytes. `prev` is the row above, null
// for row 0. Bytes left of the first pixel and above row 0 count as 0, so
// row 0 predicts from the left neighbour alone and the first pixel of every
// other row from the byte above.
template <size_t kBpp>
void FilterRow(const uint8_t* row, const uint8_t* prev, uint8_t* out,
               size_t len, size_t bpp) {
  const size_t b = kBpp != 0 ? kBpp : bpp;
  const size_t lead = std::min(b, len);
  if (prev == nullptr) {
    for (size_t i = 0; i < lead; ++i) out[i] = row[i];
    for (size_t i = b; i < len; ++i) {
      out[i] = static_cast<uint8_t>(row[i] - row[i - b]);
    }
    return;
  }
  for (size_t i = 0; i < lead; ++i) {
    out[i] = static_cast<uint8_t>(row[i] - prev[i]);
  }
  for (size_t i = b; i < len; ++i) {
    uint8_t pred = PaethPredict(row[i - b], prev[i], prev[i - b]);
    out[i] = static_cast<uint8_t>(row[i] - pred);
  }
}

// Inverse of FilterRow, in place: `prev` is the row above, already
// unfiltered.
template <size_t kBpp>
void UnfilterRow(uint8_t* row, const uint8_t* prev, size_t len, size_t bpp) {
  const size_t b = kBpp != 0 ? kBpp : bpp;
  const size_t lead = std::min(b, len);
  if (prev == nullptr) {
    for (size_t i = b; i < len; ++i) {
      row[i] = static_cast<uint8_t>(row[i] + row[i - b]);
    }
    return;
  }
  for (size_t i = 0; i < lead; ++i) {
    row[i] = static_cast<uint8_t>(row[i] + prev[i]);
  }
  for (size_t i = b; i < len; ++i) {
    uint8_t pred = PaethPredict(row[i - b], prev[i], prev[i - b]);
    row[i] = static_cast<uint8_t>(row[i] + pred);
  }
}

void Quantize(const uint8_t* in, uint8_t* out, size_t len, int shift) {
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(in[i] >> shift);
  }
}

// Maps each quantized value to the centre of its bucket.
void Dequantize(uint8_t* p, size_t len, int shift) {
  if (shift == 0) return;
  const uint8_t center = static_cast<uint8_t>(1u << (shift - 1));
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>((p[i] << shift) | center);
  }
}

// Residual plane of `raw` (quantized by `shift` first) into `out`, row by
// row. `stride` is bytes per row (1..n; the last row may be partial), `bpp`
// bytes per pixel (the "left" neighbour distance). Lossy rows are quantized
// into two alternating scratch rows, so the plane is read once.
void FilterPlane(ByteView raw, size_t stride, size_t bpp, int shift,
                 uint8_t* out) {
  const uint8_t* src = raw.data();
  const size_t n = raw.size();
  WithPixelWidth(bpp, [&](auto width) {
    constexpr size_t kBpp = decltype(width)::value;
    ByteBuffer scratch;
    if (shift > 0) scratch.resize(n > stride ? 2 * stride : stride);
    const uint8_t* prev = nullptr;
    size_t r = 0;
    for (size_t start = 0; start < n; start += stride, ++r) {
      const size_t len = std::min(stride, n - start);
      const uint8_t* row = src + start;
      if (shift > 0) {
        uint8_t* quantized = scratch.data() + (r % 2) * stride;
        Quantize(row, quantized, len, shift);
        row = quantized;
      }
      FilterRow<kBpp>(row, prev, out + start, len, bpp);
      prev = row;
    }
  });
}

// Undoes FilterPlane in place. Dequantizing runs one row behind the
// unfilter, which still needs the row above in quantized form.
void UnfilterPlane(uint8_t* data, size_t n, size_t stride, size_t bpp,
                   int shift) {
  stride = std::min(stride, n);  // forged strides past the plane: one row
  WithPixelWidth(bpp, [&](auto width) {
    constexpr size_t kBpp = decltype(width)::value;
    uint8_t* prev = nullptr;
    for (size_t start = 0; start < n; start += stride) {
      const size_t len = std::min(stride, n - start);
      uint8_t* row = data + start;
      UnfilterRow<kBpp>(row, prev, len, bpp);
      if (prev != nullptr) Dequantize(prev, stride, shift);
      prev = row;
    }
    if (prev != nullptr) {
      Dequantize(prev, n - static_cast<size_t>(prev - data), shift);
    }
  });
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

class ImageCodec : public Codec {
 public:
  explicit ImageCodec(bool lossy) : lossy_(lossy) {}

  Compression id() const override {
    return lossy_ ? Compression::kImageLossy : Compression::kImage;
  }
  std::string_view name() const override {
    return lossy_ ? "image_lossy" : "image";
  }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& ctx) const override {
    size_t stride = ctx.row_stride > 0 && ctx.row_stride <= raw.size()
                        ? ctx.row_stride
                        : (raw.size() > 0 ? raw.size() : 1);
    size_t bpp = ctx.elem_size > 0 ? ctx.elem_size : 1;
    if (bpp > stride) bpp = stride;
    int shift = lossy_ ? ShiftForQuality(ctx.quality) : 0;

    ByteBuffer residuals(raw.size());
    FilterPlane(raw, stride, bpp, shift, residuals.data());

    ByteBuffer out;
    out.push_back(kMagic);
    out.push_back(lossy_ ? 1 : 0);
    out.push_back(static_cast<uint8_t>(shift));
    PutVarint64(out, bpp);
    PutVarint64(out, stride);
    PutVarint64(out, raw.size());
    Lz77CompressAppend(ByteView(residuals), out);
    // The LZ77 stage sized `out` for incompressible input; callers may keep
    // the frame (image files, ingest batches), so give the slack back.
    out.shrink_to_fit();
    return out;
  }

  Result<uint64_t> DeclaredSize(ByteView frame) const override {
    DL_ASSIGN_OR_RETURN(Header h, ParseHeader(frame));
    return h.raw_size;
  }

  Status DecompressExact(ByteView frame,
                         std::span<uint8_t> out) const override {
    DL_ASSIGN_OR_RETURN(Header h, ParseHeader(frame));
    DL_RETURN_IF_ERROR(CheckDeclaredSize("image", h.raw_size, out.size()));
    // The embedded LZ77 stage unpacks the residual plane straight into the
    // caller's span, and must declare the same size; unfiltering then runs
    // in place.
    DL_RETURN_IF_ERROR(Lz77DecompressExact(frame.subview(h.lz77_offset), out));
    UnfilterPlane(out.data(), out.size(), static_cast<size_t>(h.stride),
                  static_cast<size_t>(h.bpp), h.mode == 1 ? h.shift : 0);
    return Status::OK();
  }

 private:
  struct Header {
    uint8_t mode = 0;
    uint8_t shift = 0;
    uint64_t bpp = 0;
    uint64_t stride = 0;
    uint64_t raw_size = 0;
    size_t lz77_offset = 0;  // where the embedded LZ77 frame starts
  };

  static Result<Header> ParseHeader(ByteView frame) {
    Decoder dec{frame};
    Header h;
    DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
    if (magic != kMagic) return Status::Corruption("image: bad magic");
    DL_ASSIGN_OR_RETURN(h.mode, dec.GetByte());
    DL_ASSIGN_OR_RETURN(h.shift, dec.GetByte());
    DL_ASSIGN_OR_RETURN(h.bpp, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(h.stride, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(h.raw_size, dec.GetVarint64());
    if (h.stride == 0 || h.bpp == 0) {
      return Status::Corruption("image: zero stride");
    }
    if (h.mode == 1 && h.shift > kMaxShift) {
      return Status::Corruption("image: quantization shift " +
                                std::to_string(h.shift) + " out of range");
    }
    // The residual plane is one LZ77 frame, so the same expansion bound
    // holds for the whole image frame.
    if (h.raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
      return Status::Corruption("image: raw size implausible for frame");
    }
    h.lz77_offset = dec.position();
    return h;
  }

  bool lossy_;
};

}  // namespace

Result<ImageFrameInfo> PeekImageFrameInfo(ByteView frame) {
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
  if (magic != kMagic) return Status::Corruption("image: bad magic");
  DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
  DL_RETURN_IF_ERROR(dec.Skip(1));  // quant shift
  DL_ASSIGN_OR_RETURN(uint64_t bpp, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t stride, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  if (bpp == 0 || stride == 0 || stride % bpp != 0 ||
      raw_size % stride != 0) {
    return Status::Corruption("image: inconsistent frame geometry");
  }
  ImageFrameInfo info;
  info.channels = bpp;
  info.width = stride / bpp;
  info.height = raw_size / stride;
  info.lossy = mode == 1;
  info.raw_bytes = raw_size;
  return info;
}

const Codec* GetImageCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/false);
  return kCodec;
}
const Codec* GetImageLossyCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/true);
  return kCodec;
}

}  // namespace dl::compress
