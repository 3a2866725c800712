// NoneCodec, RleCodec (PackBits) and DeltaCodec (zigzag varint deltas).

#include <cstring>

#include "compress/codec.h"
#include "compress/codec_internal.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {
namespace {

class NoneCodec final : public Codec {
 public:
  Compression id() const override { return Compression::kNone; }
  std::string_view name() const override { return "none"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const override {
    return raw.ToBuffer();
  }
  Result<uint64_t> DeclaredSize(ByteView frame) const override {
    return frame.size();
  }
  Status DecompressExact(ByteView frame,
                         std::span<uint8_t> out) const override {
    DL_RETURN_IF_ERROR(CheckDeclaredSize("none", frame.size(), out.size()));
    if (!out.empty()) std::memcpy(out.data(), frame.data(), out.size());
    return Status::OK();
  }
};

// PackBits-style RLE. Frame: varint raw_size, then control runs:
//   control c in [0,127]: literal run, copy next c+1 bytes
//   control c in [128,255]: repeat run, next byte repeated c-126 times
//     (i.e. run lengths 2..129)
class RleCodec final : public Codec {
 public:
  Compression id() const override { return Compression::kRle; }
  std::string_view name() const override { return "rle"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const override {
    ByteBuffer out;
    PutVarint64(out, raw.size());
    const uint8_t* p = raw.data();
    size_t n = raw.size();
    size_t i = 0;
    while (i < n) {
      // Measure the run starting at i.
      size_t run = 1;
      while (i + run < n && p[i + run] == p[i] && run < 129) ++run;
      if (run >= 2) {
        out.push_back(static_cast<uint8_t>(126 + run));
        out.push_back(p[i]);
        i += run;
        continue;
      }
      // Literal run: extend until the next repeat of length >= 3 (a repeat
      // of 2 is not worth breaking a literal run for) or the cap.
      size_t start = i;
      while (i < n && i - start < 128) {
        size_t r = 1;
        while (i + r < n && p[i + r] == p[i] && r < 3) ++r;
        if (r >= 3) break;
        ++i;
      }
      if (i == start) {  // forced by immediate repeat; emit one literal
        i = start + 1;
      }
      out.push_back(static_cast<uint8_t>(i - start - 1));
      out.insert(out.end(), p + start, p + i);
    }
    return out;
  }

  Result<uint64_t> DeclaredSize(ByteView frame) const override {
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    // raw_size is wire-controlled: bound it before anyone allocates it. A
    // run sequence is two frame bytes producing at most 129 output bytes,
    // so >129x expansion means a corrupt header, not a real frame.
    if (raw_size > static_cast<uint64_t>(frame.size()) * 129 + 129) {
      return Status::Corruption("rle: raw size implausible for frame");
    }
    return raw_size;
  }

  Status DecompressExact(ByteView frame,
                         std::span<uint8_t> out) const override {
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    DL_RETURN_IF_ERROR(CheckDeclaredSize("rle", raw_size, out.size()));
    uint8_t* op = out.data();
    uint8_t* const end = op + out.size();
    while (op != end) {
      DL_ASSIGN_OR_RETURN(uint8_t c, dec.GetByte());
      const size_t n = c < 128 ? c + 1u : c - 126u;
      if (n > static_cast<size_t>(end - op)) {
        return Status::Corruption("rle: output overruns declared size");
      }
      if (c < 128) {
        DL_ASSIGN_OR_RETURN(ByteView lits, dec.GetBytes(n));
        std::memcpy(op, lits.data(), n);
      } else {
        DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
        std::memset(op, b, n);
      }
      op += n;
    }
    return Status::OK();
  }
};

// Zigzag-delta varint coding for little-endian integer arrays. Frame:
//   u8 elem_size, varint elem_count, then per-element zigzag varint deltas.
// Trailing bytes that do not form a whole element are stored raw at the end.
class DeltaCodec final : public Codec {
 public:
  Compression id() const override { return Compression::kDelta; }
  std::string_view name() const override { return "delta"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& ctx) const override {
    uint32_t es = ctx.elem_size;
    if (es != 1 && es != 2 && es != 4 && es != 8) es = 1;
    size_t count = raw.size() / es;
    size_t tail = raw.size() % es;
    ByteBuffer out;
    out.push_back(static_cast<uint8_t>(es));
    PutVarint64(out, count);
    PutVarint64(out, tail);
    int64_t prev = 0;
    for (size_t i = 0; i < count; ++i) {
      int64_t v = LoadSigned(raw.data() + i * es, es);
      // Deltas are exact mod 2^64; unsigned subtraction keeps the extreme
      // case (INT64_MAX after INT64_MIN) defined where `v - prev` is UB.
      PutVarintSigned64(out, static_cast<int64_t>(static_cast<uint64_t>(v) -
                                                  static_cast<uint64_t>(prev)));
      prev = v;
    }
    AppendBytes(out, raw.subview(count * es, tail));
    return out;
  }

  Result<uint64_t> DeclaredSize(ByteView frame) const override {
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(Counts counts, ParseCounts(dec));
    return counts.count * counts.es + counts.tail;
  }

  Status DecompressExact(ByteView frame,
                         std::span<uint8_t> out) const override {
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(Counts counts, ParseCounts(dec));
    const uint32_t es = counts.es;
    DL_RETURN_IF_ERROR(CheckDeclaredSize(
        "delta", counts.count * es + counts.tail, out.size()));
    uint8_t* op = out.data();
    int64_t prev = 0;
    for (uint64_t i = 0; i < counts.count; ++i) {
      DL_ASSIGN_OR_RETURN(int64_t d, dec.GetVarintSigned64());
      // Mirror of the encoder: accumulate with defined unsigned wraparound.
      prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                  static_cast<uint64_t>(d));
      StoreSigned(op, prev, es);
      op += es;
    }
    DL_ASSIGN_OR_RETURN(ByteView rest, dec.GetBytes(counts.tail));
    if (!rest.empty()) std::memcpy(op, rest.data(), rest.size());
    return Status::OK();
  }

 private:
  static int64_t LoadSigned(const uint8_t* p, uint32_t es) {
    uint64_t v = 0;
    std::memcpy(&v, p, es);
    // Sign-extend.
    if (es < 8) {
      uint64_t sign_bit = 1ull << (es * 8 - 1);
      if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
    }
    return static_cast<int64_t>(v);
  }

  static void StoreSigned(uint8_t* p, int64_t v, uint32_t es) {
    uint64_t u = static_cast<uint64_t>(v);
    for (uint32_t i = 0; i < es; ++i) p[i] = static_cast<uint8_t>(u >> (8 * i));
  }

  struct Counts {
    uint32_t es = 1;
    uint64_t count = 0;
    uint64_t tail = 0;
  };

  static Result<Counts> ParseCounts(Decoder& dec) {
    Counts c;
    DL_ASSIGN_OR_RETURN(uint8_t es, dec.GetByte());
    if (es != 1 && es != 2 && es != 4 && es != 8) {
      return Status::Corruption("delta: bad element size");
    }
    c.es = es;
    DL_ASSIGN_OR_RETURN(c.count, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(c.tail, dec.GetVarint64());
    // count/tail are wire-controlled: each element costs at least one delta
    // varint byte and the tail is stored raw, so both are bounded by the
    // remaining frame bytes. Checking before the multiply also keeps
    // count * es from overflowing.
    if (c.count > dec.remaining() || c.tail > dec.remaining()) {
      return Status::Corruption("delta: counts implausible for frame");
    }
    return c;
  }
};

}  // namespace

const Codec* GetNoneCodec() {
  static const NoneCodec* kCodec = new NoneCodec();
  return kCodec;
}
const Codec* GetRleCodec() {
  static const RleCodec* kCodec = new RleCodec();
  return kCodec;
}
const Codec* GetDeltaCodec() {
  static const DeltaCodec* kCodec = new DeltaCodec();
  return kCodec;
}

}  // namespace dl::compress
