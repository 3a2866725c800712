#ifndef DEEPLAKE_TSF_CHUNK_H_
#define DEEPLAKE_TSF_CHUNK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "compress/codec.h"
#include "tsf/sample.h"

namespace dl::tsf {

/// On-storage chunk layout (paper §3.4: "Chunks contain header information
/// such as byte ranges, shapes of the samples, and the sample data"):
///
///   [0..3]   magic "DLC1"
///   [4]      format version (1)
///   [5]      dtype
///   [6]      sample compression
///   [7]      chunk compression
///   [8..11]  u32 header_len H (bytes of the varint header that follows)
///   [12..12+H)  varint num_samples, then per sample:
///                 varint stored_len, varint ndim, ndim varint dims
///   [12+H..N-4)  payload (per-sample frames if sample-compressed,
///                concatenated raw bytes otherwise; the whole section is
///                one codec frame if chunk-compressed)
///   [N-4..N)  u32 CRC-32C of bytes [0, N-4)
///
/// The fixed 12-byte prefix lets a streaming reader learn the header size
/// with one small range request, then fetch exact sample byte ranges —
/// the primitive behind sparse-view streaming (§3.5, §4.4).
struct ChunkHeader {
  DType dtype = DType::kUInt8;
  compress::Compression sample_compression = compress::Compression::kNone;
  compress::Compression chunk_compression = compress::Compression::kNone;
  std::vector<uint64_t> stored_lens;   // per-sample stored byte length
  std::vector<TensorShape> shapes;     // per-sample logical shape
  uint64_t payload_offset = 0;         // first payload byte in the object

  size_t num_samples() const { return stored_lens.size(); }

  /// Byte range [offset, offset+len) of sample `i` within the chunk object.
  /// Only meaningful when chunk_compression == kNone.
  void SampleRange(size_t i, uint64_t* offset, uint64_t* len) const;

  /// Parses the fixed 12-byte prefix; returns the header length H.
  static Result<uint32_t> PeekHeaderLen(ByteView prefix);

  /// Parses the full header from the first 12+H bytes of the chunk.
  static Result<ChunkHeader> Parse(ByteView chunk_prefix);

  /// Size in bytes of the 12-byte fixed prefix.
  static constexpr size_t kFixedPrefix = 12;
};

/// Accumulates samples and serializes one chunk object.
class ChunkBuilder {
 public:
  ChunkBuilder(DType dtype, compress::Compression sample_compression,
               compress::Compression chunk_compression);

  /// Appends one sample's stored bytes: its codec frame when the chunk
  /// uses sample compression (see EncodeSample), its raw bytes otherwise.
  /// `shape` is the sample's logical shape. The builder trusts its caller:
  /// samples are validated where they enter the tensor, and packing (when
  /// to seal) is the tensor's decision, not the builder's.
  void Append(ByteView stored, const TensorShape& shape);

  size_t num_samples() const { return shapes_.size(); }
  /// Current payload size (post-sample-compression, pre-chunk-compression).
  uint64_t payload_bytes() const { return payload_.size(); }
  bool empty() const { return shapes_.empty(); }

  /// Reads back a sample that is still buffered (not yet serialized). The
  /// returned sample owns a copy: the builder's live payload buffer can
  /// reallocate on the next Append, so handing out a view into it would
  /// dangle (the lifetime bug the pre-Slice deep copy silently masked).
  Result<Sample> ReadBuffered(size_t local_index) const;

  /// Serializes the chunk and resets the builder.
  Result<ByteBuffer> Finish();

 private:
  DType dtype_;
  compress::Compression sample_compression_;
  compress::Compression chunk_compression_;
  ByteBuffer payload_;
  std::vector<uint64_t> stored_lens_;
  std::vector<TensorShape> shapes_;
};

/// A fully-fetched, parsed chunk; verifies the CRC on parse.
///
/// Zero-copy: the chunk holds the fetched object as a Slice (typically a
/// view of the store's or LRU cache's buffer) and decodes samples as
/// subslices of it — uncompressed samples share the chunk's bytes, codec
/// output lands in pooled arena buffers (DESIGN.md §10).
class Chunk {
 public:
  /// Parses a complete chunk object. `verify_checksum` false skips the
  /// CRC pass (RocksDB-style ReadOptions::verify_checksums) — the
  /// streaming dataloader's hot path trusts the transport; writers and
  /// random-access reads keep verification on.
  static Result<Chunk> Parse(Slice bytes, bool verify_checksum = true);

  const ChunkHeader& header() const { return header_; }
  size_t num_samples() const { return header_.num_samples(); }

  /// Decodes sample `local_index` (decompressing as needed). The sample's
  /// data slice keeps the chunk's buffer (or the pooled decode buffer)
  /// alive on its own — the Chunk object may be destroyed first.
  Result<Sample> ReadSample(size_t local_index) const;

  /// Decompresses sample `local_index` straight into `out`, which must be
  /// exactly its size (shape × dtype): the dataloader's decode-into-the-
  /// batch path. A frame that disagrees with `out.size()` is Corruption; a
  /// chunk without sample compression is FailedPrecondition (ReadSample
  /// returns its samples as subslices, copying nothing).
  Status ReadSampleInto(size_t local_index, std::span<uint8_t> out) const;

  /// Raw stored bytes of sample `local_index` (compressed frame when the
  /// chunk uses sample compression). Shares the chunk's keep-alive.
  Result<Slice> StoredBytes(size_t local_index) const;

 private:
  Chunk(ChunkHeader header, Slice bytes, Slice payload)
      : header_(std::move(header)),
        bytes_(std::move(bytes)),
        decompressed_payload_(std::move(payload)) {}

  /// Payload slice: either into `bytes_` (no chunk compression) or the
  /// pooled decompressed buffer.
  Slice Payload() const;

  ChunkHeader header_;
  // dllint-ok(slice-owner): both slices carry their keep-alive owner —
  // bytes_ pins the fetched chunk buffer, decompressed_payload_ pins the
  // pooled decompression buffer — so Chunk needs no separate Buffer member.
  Slice bytes_;
  Slice decompressed_payload_;  // non-empty iff chunk-compressed
};

/// Decodes one sample-compressed frame fetched via a range request, given
/// its logical shape and dtype (used by the sparse-view streaming path).
/// Uncompressed frames become the sample's data without a copy (the slice
/// keep-alive carries the source buffer); compressed frames decompress into
/// a pooled buffer.
Result<Sample> DecodeStoredSample(Slice stored,
                                  compress::Compression sample_compression,
                                  DType dtype, const TensorShape& shape);

/// Codec context appropriate for a sample of this shape/dtype: row stride =
/// bytes per leading-dimension slice, elem size = trailing dim (channels).
compress::CodecContext ContextForSample(DType dtype,
                                        const TensorShape& shape);

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_CHUNK_H_
