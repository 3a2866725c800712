#ifndef DEEPLAKE_TSF_TILE_ENCODER_H_
#define DEEPLAKE_TSF_TILE_ENCODER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "tsf/shape.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dl::tsf {

/// Tile layout of one oversized sample (paper §3.4: "If a sample is larger
/// than the upper bound chunk size ... the sample is tiled into chunks
/// across spatial dimensions").
struct TileLayout {
  TensorShape sample_shape;          // full logical shape
  std::vector<uint64_t> tile_dims;   // per-dimension tile size
  std::vector<uint64_t> grid;        // per-dimension tile count
  std::vector<uint64_t> chunk_ids;   // row-major over the grid

  uint64_t num_tiles() const {
    uint64_t n = 1;
    for (uint64_t g : grid) n *= g;
    return n;
  }

  /// Shape of the tile at grid coordinate (edge tiles may be smaller).
  TensorShape TileShapeAt(const std::vector<uint64_t>& coord) const;

  /// Sample coordinate of the first element of the tile at `coord`.
  std::vector<uint64_t> TileOrigin(const std::vector<uint64_t>& coord) const;
};

/// Computes a tile grid such that each tile's raw bytes stay under
/// `max_tile_bytes`, splitting the leading (spatial) dimensions first.
TileLayout ComputeTileLayout(const TensorShape& shape, size_t dtype_size,
                             uint64_t max_tile_bytes);

/// Advances `coord` to the next point of the row-major grid [0, extent).
/// Returns false (leaving `coord` all zeros) once every point was visited,
/// so `do { ... } while (NextCoord(coord, extent));` visits each point once,
/// including the single point of a rank-0 grid.
bool NextCoord(std::vector<uint64_t>& coord,
               const std::vector<uint64_t>& extent);

/// Copies the n-d box of `extent` elements at `src_origin` in the row-major
/// array `src` (shaped `src_shape`) to `dst_origin` in `dst` (shaped
/// `dst_shape`), one contiguous innermost run at a time. The caller keeps
/// the box inside both arrays. A box with a zero extent copies nothing.
void CopyBox(const uint8_t* src, const TensorShape& src_shape,
             const std::vector<uint64_t>& src_origin, uint8_t* dst,
             const TensorShape& dst_shape,
             const std::vector<uint64_t>& dst_origin,
             const std::vector<uint64_t>& extent, size_t dtype_size);

/// Per-tensor index of tiled samples: sample index → layout.
class TileEncoder {
 public:
  bool IsTiled(uint64_t sample_index) const {
    return entries_.count(sample_index) > 0;
  }
  const TileLayout* Get(uint64_t sample_index) const {
    auto it = entries_.find(sample_index);
    return it == entries_.end() ? nullptr : &it->second;
  }
  void Set(uint64_t sample_index, TileLayout layout) {
    entries_[sample_index] = std::move(layout);
  }
  void Remove(uint64_t sample_index) { entries_.erase(sample_index); }
  size_t num_tiled_samples() const { return entries_.size(); }
  /// One past the largest tiled sample index; 0 when none is tiled.
  uint64_t end_index() const {
    return entries_.empty() ? 0 : entries_.rbegin()->first + 1;
  }

  ByteBuffer Serialize() const;
  static Result<TileEncoder> Deserialize(ByteView bytes);

 private:
  std::map<uint64_t, TileLayout> entries_;
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_TILE_ENCODER_H_
