#ifndef DEEPLAKE_COMPRESS_CODEC_H_
#define DEEPLAKE_COMPRESS_CODEC_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dl::compress {

/// Compression schemes available to tensors. The paper's running example
/// (§5) stores image tensors with JPEG *sample compression* and label
/// tensors with LZ4 *chunk compression*; here `kImage`/`kImageLossy` stand
/// in for PNG/JPEG and `kLz77` for LZ4 (see DESIGN.md substitutions).
enum class Compression : uint8_t {
  kNone = 0,
  kLz77 = 1,        // LZ4-style byte compressor (chunk compression default)
  kRle = 2,         // PackBits run-length (masks, sparse labels)
  kDelta = 3,       // zigzag-delta varints for integer tensors
  kImage = 4,       // lossless predictive filter + LZ77 (PNG stand-in)
  kImageLossy = 5,  // quantized predictive filter + LZ77 (JPEG stand-in)
};

/// Parses "none" / "lz77" / "lz4" (alias) / "rle" / "delta" / "image" /
/// "image_lossy" / "png" / "jpeg" (aliases).
Result<Compression> CompressionFromName(std::string_view name);
std::string_view CompressionName(Compression c);

/// Side information some codecs use at compression time. Everything needed
/// for decompression is stored in the frame itself, so decompression never
/// needs a context.
struct CodecContext {
  /// Bytes per image row (= width * channels) for the image codecs; 0 means
  /// "treat the buffer as one row".
  uint64_t row_stride = 0;
  /// Element width in bytes for the delta codec (1, 2, 4 or 8).
  uint32_t elem_size = 1;
  /// Image-lossy quality in [1, 100]; higher keeps more bits. 0 = default.
  int quality = 0;
};

/// A byte-oriented compression codec. Stateless and thread-safe; obtained
/// from `GetCodec` (singletons).
class Codec {
 public:
  virtual ~Codec() = default;

  virtual Compression id() const = 0;
  virtual std::string_view name() const = 0;

  /// Compresses `raw` into a self-describing frame.
  virtual Result<ByteBuffer> Compress(ByteView raw,
                                      const CodecContext& ctx) const = 0;

  /// An `expected_size` for callers that do not know the raw size: the
  /// codec then only bounds the frame's declared size by its own
  /// plausibility ratio.
  static constexpr uint64_t kUnknownSize = UINT64_MAX;

  /// The raw size `frame` declares, read from its header. Corruption when
  /// the header is malformed or the size exceeds the codec's own
  /// expansion bound for a frame of this length, so callers may allocate
  /// it.
  virtual Result<uint64_t> DeclaredSize(ByteView frame) const = 0;

  /// The codec's one decoder: decompresses a frame that must hold exactly
  /// `out.size()` bytes into `out`, writing every byte on success. A frame
  /// that declares another size is Corruption before anything is written;
  /// a malformed frame is Corruption and may leave `out` partly written.
  virtual Status DecompressExact(ByteView frame,
                                 std::span<uint8_t> out) const = 0;

  /// Decompresses a frame produced by `Compress` into `out` (cleared first;
  /// pre-reserved capacity — e.g. from a BufferPool — is kept), through
  /// DecompressExact. A frame that declares a raw size other than a known
  /// `expected_size` is Corruption before `out` grows. Returns Corruption
  /// on a malformed frame.
  Status DecompressInto(ByteView frame, ByteBuffer& out,
                        uint64_t expected_size) const;
  Status DecompressInto(ByteView frame, ByteBuffer& out) const {
    return DecompressInto(frame, out, kUnknownSize);
  }

  /// Decompresses into a fresh buffer. Returns Corruption on a malformed
  /// frame.
  Result<ByteBuffer> Decompress(ByteView frame) const;
};

/// Returns the singleton codec for `c`; never null.
const Codec* GetCodec(Compression c);

/// Convenience wrappers.
Result<ByteBuffer> CompressBytes(Compression c, ByteView raw,
                                 const CodecContext& ctx = {});
Result<ByteBuffer> DecompressBytes(Compression c, ByteView frame);

/// Decompresses a frame that must hold exactly `raw_size` bytes into a
/// buffer of that size recycled from `pool` (BufferPool::AcquireSized, so
/// a recycled buffer is not zero-filled first), and seals it into an owning
/// Slice — the chunk-decode hot path: steady-state epoch loops hit the
/// pool's free list instead of the allocator (DESIGN.md §10). A frame that
/// declares another size is Corruption.
Result<Slice> DecompressToSlice(Compression c, ByteView frame,
                                uint64_t raw_size,
                                BufferPool& pool = BufferPool::Default());

/// Shape information recovered from an image-codec frame header without
/// decompressing — the ingestion fast path (§5 "the binary is directly
/// copied into a chunk without additional decoding") still needs the
/// logical shape for the tensor's shape encoder.
struct ImageFrameInfo {
  uint64_t height = 0;
  uint64_t width = 0;
  uint64_t channels = 0;
  bool lossy = false;
  uint64_t raw_bytes = 0;
};
Result<ImageFrameInfo> PeekImageFrameInfo(ByteView frame);

}  // namespace dl::compress

#endif  // DEEPLAKE_COMPRESS_CODEC_H_
