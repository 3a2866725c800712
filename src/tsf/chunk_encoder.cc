#include "tsf/chunk_encoder.h"

#include <algorithm>

#include "util/coding.h"
#include "util/macros.h"

namespace dl::tsf {

void ChunkEncoder::AddChunk(uint64_t chunk_id, uint64_t num_samples) {
  uint64_t prev_last = entries_.empty() ? 0 : entries_.back().last_index + 1;
  entries_.push_back({prev_last + num_samples - 1, chunk_id});
}

void ChunkEncoder::ExtendLastChunk(uint64_t additional) {
  if (!entries_.empty()) entries_.back().last_index += additional;
}

Result<ChunkEncoder::Location> ChunkEncoder::Find(
    uint64_t global_index) const {
  if (entries_.empty() || global_index > entries_.back().last_index) {
    return Status::OutOfRange("chunk encoder: index " +
                              std::to_string(global_index) + " beyond " +
                              std::to_string(num_samples()) + " samples");
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), global_index,
      [](const ChunkEntry& e, uint64_t idx) { return e.last_index < idx; });
  size_t ordinal = static_cast<size_t>(it - entries_.begin());
  uint64_t first = ordinal == 0 ? 0 : entries_[ordinal - 1].last_index + 1;
  Location loc;
  loc.chunk_id = it->chunk_id;
  loc.chunk_ordinal = ordinal;
  loc.local_index = global_index - first;
  loc.chunk_first = first;
  loc.chunk_samples = it->last_index - first + 1;
  return loc;
}

Status ChunkEncoder::ReplaceChunkId(size_t ordinal, uint64_t new_chunk_id) {
  if (ordinal >= entries_.size()) {
    return Status::OutOfRange("chunk encoder: no row " +
                              std::to_string(ordinal));
  }
  entries_[ordinal].chunk_id = new_chunk_id;
  return Status::OK();
}

ByteBuffer ChunkEncoder::Serialize() const {
  ByteBuffer out;
  PutVarint64(out, entries_.size());
  uint64_t prev_last = 0;
  uint64_t prev_id = 0;
  for (const auto& e : entries_) {
    PutVarint64(out, e.last_index - prev_last);
    PutVarintSigned64(out,
                      static_cast<int64_t>(e.chunk_id - prev_id));
    prev_last = e.last_index;
    prev_id = e.chunk_id;
  }
  return out;
}

Result<ChunkEncoder> ChunkEncoder::Deserialize(ByteView bytes) {
  Decoder dec{bytes};
  DL_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  if (n > dec.remaining() / 2) {  // each row takes at least two bytes
    return Status::Corruption("chunk encoder: row count exceeds input");
  }
  ChunkEncoder enc;
  enc.entries_.reserve(n);
  uint64_t prev_last = 0;
  uint64_t prev_id = 0;
  for (uint64_t i = 0; i < n; ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t dlast, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(int64_t did, dec.GetVarintSigned64());
    prev_last += dlast;
    prev_id += static_cast<uint64_t>(did);
    enc.entries_.push_back({prev_last, prev_id});
  }
  if (!dec.done()) {
    return Status::Corruption("chunk encoder: trailing bytes");
  }
  return enc;
}

}  // namespace dl::tsf
