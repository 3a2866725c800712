#include "compress/codec.h"

#include <string>

#include "compress/codec_internal.h"
#include "util/macros.h"

namespace dl::compress {

// Singletons defined in the codec translation units.
const Codec* GetNoneCodec();
const Codec* GetLz77Codec();
const Codec* GetRleCodec();
const Codec* GetDeltaCodec();
const Codec* GetImageCodec();
const Codec* GetImageLossyCodec();

const Codec* GetCodec(Compression c) {
  switch (c) {
    case Compression::kNone:
      return GetNoneCodec();
    case Compression::kLz77:
      return GetLz77Codec();
    case Compression::kRle:
      return GetRleCodec();
    case Compression::kDelta:
      return GetDeltaCodec();
    case Compression::kImage:
      return GetImageCodec();
    case Compression::kImageLossy:
      return GetImageLossyCodec();
  }
  return GetNoneCodec();
}

Result<Compression> CompressionFromName(std::string_view name) {
  if (name.empty() || name == "none") return Compression::kNone;
  if (name == "lz77" || name == "lz4") return Compression::kLz77;
  if (name == "rle") return Compression::kRle;
  if (name == "delta") return Compression::kDelta;
  if (name == "image" || name == "png") return Compression::kImage;
  if (name == "image_lossy" || name == "jpeg" || name == "jpg") {
    return Compression::kImageLossy;
  }
  return Status::InvalidArgument("unknown compression '" + std::string(name) +
                                 "'");
}

std::string_view CompressionName(Compression c) {
  return GetCodec(c)->name();
}

Result<ByteBuffer> CompressBytes(Compression c, ByteView raw,
                                 const CodecContext& ctx) {
  return GetCodec(c)->Compress(raw, ctx);
}

Result<ByteBuffer> DecompressBytes(Compression c, ByteView frame) {
  return GetCodec(c)->Decompress(frame);
}

Status Codec::DecompressInto(ByteView frame, ByteBuffer& out,
                             uint64_t expected_size) const {
  out.clear();
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, DeclaredSize(frame));
  DL_RETURN_IF_ERROR(CheckDeclaredSize(name(), raw_size, expected_size));
  out.resize(static_cast<size_t>(raw_size));
  Status st = DecompressExact(frame, out);
  if (!st.ok()) out.clear();
  return st;
}

Result<ByteBuffer> Codec::Decompress(ByteView frame) const {
  ByteBuffer out;
  DL_RETURN_IF_ERROR(DecompressInto(frame, out));
  return out;
}

Status CheckDeclaredSize(std::string_view codec, uint64_t declared,
                         uint64_t expected) {
  if (expected == Codec::kUnknownSize || declared == expected) {
    return Status::OK();
  }
  return Status::Corruption(std::string(codec) + ": frame declares raw size " +
                            std::to_string(declared) + ", expected " +
                            std::to_string(expected));
}

Result<Slice> DecompressToSlice(Compression c, ByteView frame,
                                uint64_t raw_size, BufferPool& pool) {
  // No codec expands a frame more than 255x (an LZ77 length-extension byte
  // of 255), so a larger size is a corrupt caller header, not an
  // allocation to attempt.
  if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
    return Status::Corruption(
        std::string(CompressionName(c)) + ": expected raw size " +
        std::to_string(raw_size) + " implausible for a " +
        std::to_string(frame.size()) + "-byte frame");
  }
  ByteBuffer out = pool.AcquireSized(static_cast<size_t>(raw_size));
  DL_RETURN_IF_ERROR(GetCodec(c)->DecompressExact(frame, out));
  return pool.Seal(std::move(out));
}

}  // namespace dl::compress
