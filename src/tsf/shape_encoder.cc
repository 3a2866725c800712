#include "tsf/shape_encoder.h"

#include <algorithm>

#include "util/coding.h"
#include "util/macros.h"

namespace dl::tsf {

void ShapeEncoder::Append(const TensorShape& shape) {
  if (!rows_.empty() && rows_.back().shape == shape) {
    rows_.back().last_index += 1;
    return;
  }
  uint64_t last = rows_.empty() ? 0 : rows_.back().last_index + 1;
  rows_.push_back({last, shape});
}

Result<TensorShape> ShapeEncoder::At(uint64_t index) const {
  if (rows_.empty() || index > rows_.back().last_index) {
    return Status::OutOfRange("shape encoder: index " +
                              std::to_string(index) + " beyond end");
  }
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), index,
      [](const Row& r, uint64_t idx) { return r.last_index < idx; });
  return it->shape;
}

std::vector<TensorShape> ShapeEncoder::Expand() const {
  std::vector<TensorShape> shapes;
  shapes.reserve(num_samples());
  uint64_t start = 0;
  for (const auto& r : rows_) {
    for (uint64_t i = start; i <= r.last_index; ++i) shapes.push_back(r.shape);
    start = r.last_index + 1;
  }
  return shapes;
}

void ShapeEncoder::Rebuild(const std::vector<TensorShape>& shapes) {
  rows_.clear();
  for (const auto& s : shapes) Append(s);
}

Status ShapeEncoder::Set(uint64_t index, const TensorShape& shape) {
  if (rows_.empty() || index > rows_.back().last_index) {
    return Status::OutOfRange("shape encoder: set beyond end");
  }
  // Updates are rare relative to appends; a rebuild keeps runs canonical.
  std::vector<TensorShape> shapes = Expand();
  shapes[index] = shape;
  Rebuild(shapes);
  return Status::OK();
}

ByteBuffer ShapeEncoder::Serialize() const {
  ByteBuffer out;
  PutVarint64(out, rows_.size());
  uint64_t prev_last = 0;
  for (const auto& r : rows_) {
    PutVarint64(out, r.last_index - prev_last);
    r.shape.Encode(out);
    prev_last = r.last_index;
  }
  return out;
}

Result<ShapeEncoder> ShapeEncoder::Deserialize(ByteView bytes) {
  Decoder dec{bytes};
  DL_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  if (n > dec.remaining() / 2) {  // each row takes at least two bytes
    return Status::Corruption("shape encoder: row count exceeds input");
  }
  ShapeEncoder enc;
  enc.rows_.reserve(n);
  uint64_t prev_last = 0;
  for (uint64_t i = 0; i < n; ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t dlast, dec.GetVarint64());
    DL_ASSIGN_OR_RETURN(TensorShape shape, TensorShape::Decode(dec));
    prev_last += dlast;
    enc.rows_.push_back({prev_last, std::move(shape)});
  }
  if (!dec.done()) {
    return Status::Corruption("shape encoder: trailing bytes");
  }
  return enc;
}

}  // namespace dl::tsf
