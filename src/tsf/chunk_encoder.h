#ifndef DEEPLAKE_TSF_CHUNK_ENCODER_H_
#define DEEPLAKE_TSF_CHUNK_ENCODER_H_

#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace dl::tsf {

/// One row of the chunk encoder: chunk `chunk_id` holds global sample
/// indices (previous row's last_index, last_index].
struct ChunkEntry {
  uint64_t last_index;  // inclusive global index of the chunk's last sample
  uint64_t chunk_id;    // storage name is Hex64(chunk_id)
};

/// The *chunk encoder* (paper §3.4): a compressed index map that preserves
/// the sample-index → chunk-id mapping per tensor. Rows are delta-coded on
/// serialization, so sequentially-allocated chunk ids and near-constant
/// samples-per-chunk cost ~2-4 bytes per chunk — the property behind the
/// paper's "150MB chunk encoder per 1PB tensor data" claim (reproduced by
/// bench_tbl_chunk_encoder_scale).
class ChunkEncoder {
 public:
  /// Resolution of a global sample index.
  struct Location {
    uint64_t chunk_id;
    size_t chunk_ordinal;      // position of the row in the encoder
    uint64_t local_index;      // index of the sample within the chunk
    uint64_t chunk_first;      // global index of the chunk's first sample
    uint64_t chunk_samples;    // number of samples in the chunk
  };

  ChunkEncoder() = default;

  /// Registers a new tail chunk holding the next `num_samples` samples.
  void AddChunk(uint64_t chunk_id, uint64_t num_samples);

  /// Extends the tail chunk by `additional` samples (open-chunk growth).
  void ExtendLastChunk(uint64_t additional);

  /// Resolves a global index; OutOfRange past the end.
  Result<Location> Find(uint64_t global_index) const;

  /// Total samples across all chunks.
  uint64_t num_samples() const {
    return entries_.empty() ? 0 : entries_.back().last_index + 1;
  }
  size_t num_chunks() const { return entries_.size(); }
  const std::vector<ChunkEntry>& entries() const { return entries_; }

  /// Points row `ordinal` at a rewritten chunk (in-place sample update).
  Status ReplaceChunkId(size_t ordinal, uint64_t new_chunk_id);

  ByteBuffer Serialize() const;
  static Result<ChunkEncoder> Deserialize(ByteView bytes);

 private:
  std::vector<ChunkEntry> entries_;
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_CHUNK_ENCODER_H_
