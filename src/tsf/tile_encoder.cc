#include "tsf/tile_encoder.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/macros.h"

namespace dl::tsf {

namespace {

/// Element strides of a row-major array.
std::vector<uint64_t> Strides(const TensorShape& shape) {
  std::vector<uint64_t> strides(shape.ndim(), 1);
  for (size_t d = shape.ndim(); d-- > 1;) {
    strides[d - 1] = strides[d] * shape[d];
  }
  return strides;
}

}  // namespace

TensorShape TileLayout::TileShapeAt(
    const std::vector<uint64_t>& coord) const {
  std::vector<uint64_t> dims = TileOrigin(coord);
  for (size_t d = 0; d < dims.size(); ++d) {
    dims[d] = std::min(tile_dims[d], sample_shape[d] - dims[d]);
  }
  return TensorShape(std::move(dims));
}

std::vector<uint64_t> TileLayout::TileOrigin(
    const std::vector<uint64_t>& coord) const {
  std::vector<uint64_t> origin(coord.size());
  for (size_t d = 0; d < coord.size(); ++d) origin[d] = coord[d] * tile_dims[d];
  return origin;
}

TileLayout ComputeTileLayout(const TensorShape& shape, size_t dtype_size,
                             uint64_t max_tile_bytes) {
  TileLayout layout;
  layout.sample_shape = shape;
  layout.tile_dims = shape.dims();
  // Only the leading spatial dimensions are split (§3.4); channel-like
  // trailing dims stay whole so tiles remain pixel-aligned.
  size_t splittable = shape.ndim() >= 3 ? 2 : (shape.ndim() >= 1 ? 1 : 0);
  auto tile_bytes = [&] {
    uint64_t n = dtype_size;
    for (uint64_t d : layout.tile_dims) n *= d;
    return n;
  };
  while (tile_bytes() > max_tile_bytes) {
    // Halve the largest splittable dim; stop when nothing can shrink.
    size_t best = SIZE_MAX;
    for (size_t d = 0; d < splittable; ++d) {
      if (layout.tile_dims[d] > 1 &&
          (best == SIZE_MAX || layout.tile_dims[d] > layout.tile_dims[best])) {
        best = d;
      }
    }
    if (best == SIZE_MAX) break;
    layout.tile_dims[best] = (layout.tile_dims[best] + 1) / 2;
  }
  layout.grid.resize(shape.ndim());
  for (size_t d = 0; d < shape.ndim(); ++d) {
    layout.grid[d] =
        layout.tile_dims[d] == 0
            ? 1
            : (shape[d] + layout.tile_dims[d] - 1) / layout.tile_dims[d];
  }
  return layout;
}

bool NextCoord(std::vector<uint64_t>& coord,
               const std::vector<uint64_t>& extent) {
  for (size_t d = coord.size(); d-- > 0;) {
    if (++coord[d] < extent[d]) return true;
    coord[d] = 0;
  }
  return false;
}

void CopyBox(const uint8_t* src, const TensorShape& src_shape,
             const std::vector<uint64_t>& src_origin, uint8_t* dst,
             const TensorShape& dst_shape,
             const std::vector<uint64_t>& dst_origin,
             const std::vector<uint64_t>& extent, size_t dtype_size) {
  size_t ndim = extent.size();
  for (uint64_t e : extent) {
    if (e == 0) return;
  }
  if (ndim == 0) {  // a scalar is a single element
    std::memcpy(dst, src, dtype_size);
    return;
  }
  std::vector<uint64_t> src_strides = Strides(src_shape);
  std::vector<uint64_t> dst_strides = Strides(dst_shape);
  size_t run_bytes = extent[ndim - 1] * dtype_size;
  // Odometer over every dimension but the innermost, which is one
  // contiguous run in both arrays (idx[ndim - 1] stays 0).
  std::vector<uint64_t> outer = extent;
  outer.back() = 1;
  std::vector<uint64_t> idx(ndim, 0);
  do {
    uint64_t src_off = 0, dst_off = 0;
    for (size_t d = 0; d < ndim; ++d) {
      src_off += (src_origin[d] + idx[d]) * src_strides[d];
      dst_off += (dst_origin[d] + idx[d]) * dst_strides[d];
    }
    std::memcpy(dst + dst_off * dtype_size, src + src_off * dtype_size,
                run_bytes);
  } while (NextCoord(idx, outer));
}

ByteBuffer TileEncoder::Serialize() const {
  ByteBuffer out;
  PutVarint64(out, entries_.size());
  for (const auto& [idx, layout] : entries_) {
    PutVarint64(out, idx);
    layout.sample_shape.Encode(out);
    for (uint64_t d : layout.tile_dims) PutVarint64(out, d);
    for (uint64_t g : layout.grid) PutVarint64(out, g);
    PutVarint64(out, layout.chunk_ids.size());
    uint64_t prev = 0;
    for (uint64_t id : layout.chunk_ids) {
      PutVarintSigned64(out, static_cast<int64_t>(id - prev));
      prev = id;
    }
  }
  return out;
}

Result<TileEncoder> TileEncoder::Deserialize(ByteView bytes) {
  Decoder dec{bytes};
  DL_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  TileEncoder enc;
  for (uint64_t i = 0; i < n; ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t idx, dec.GetVarint64());
    TileLayout layout;
    DL_ASSIGN_OR_RETURN(layout.sample_shape, TensorShape::Decode(dec));
    size_t ndim = layout.sample_shape.ndim();
    layout.tile_dims.resize(ndim);
    for (auto& d : layout.tile_dims) {
      DL_ASSIGN_OR_RETURN(d, dec.GetVarint64());
    }
    layout.grid.resize(ndim);
    for (auto& g : layout.grid) {
      DL_ASSIGN_OR_RETURN(g, dec.GetVarint64());
    }
    DL_ASSIGN_OR_RETURN(uint64_t count, dec.GetVarint64());
    if (count > dec.remaining() || count != layout.num_tiles()) {
      return Status::Corruption("tile encoder: chunk id count " +
                                std::to_string(count) +
                                " does not match the grid or the input");
    }
    layout.chunk_ids.resize(count);
    uint64_t prev = 0;
    for (auto& id : layout.chunk_ids) {
      DL_ASSIGN_OR_RETURN(int64_t delta, dec.GetVarintSigned64());
      prev += static_cast<uint64_t>(delta);
      id = prev;
    }
    enc.entries_[idx] = std::move(layout);
  }
  if (!dec.done()) return Status::Corruption("tile encoder: trailing bytes");
  return enc;
}

}  // namespace dl::tsf
