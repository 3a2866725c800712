#ifndef DEEPLAKE_TSF_SAMPLE_H_
#define DEEPLAKE_TSF_SAMPLE_H_

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "tsf/dtype.h"
#include "tsf/shape.h"
#include "util/buffer.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dl::tsf {

/// One sample: an n-dimensional array value (a "cell" of a tensor column).
/// `data` is a Slice — a view plus keep-alive into a refcounted buffer
/// (DESIGN.md §10) — so a sample decoded from a chunk references the chunk's
/// (or the decode pool's) bytes directly with zero per-sample copies, and
/// keeps them alive past cache eviction or dataset close. Default access
/// from the public API returns these, the NumPy-array equivalent of the
/// paper (§3.2).
struct Sample {
  DType dtype = DType::kUInt8;
  TensorShape shape;
  // dllint-ok(slice-owner): data's keep-alive (Slice::owner) pins the
  // source chunk or decode-pool buffer; Sample is the zero-copy hand-off
  // type and deliberately stores no second owner.
  Slice data;

  Sample() = default;
  Sample(DType dt, TensorShape sh, Slice d)
      : dtype(dt), shape(std::move(sh)), data(std::move(d)) {}

  /// Number of elements (product of shape dims).
  uint64_t NumElements() const { return shape.NumElements(); }
  uint64_t nbytes() const { return data.size(); }
  bool IsEmpty() const { return data.empty(); }

  /// Bytes the shape and dtype call for: NumElements() * DTypeSize(dtype),
  /// or 0 for an empty-shaped sample (any dim 0).
  uint64_t ExpectedBytes() const {
    return shape.IsEmptySample() ? 0 : NumElements() * DTypeSize(dtype);
  }

  /// data.size() must equal ExpectedBytes().
  Status Validate() const {
    if (data.size() != ExpectedBytes()) {
      return Status::InvalidArgument(
          "sample byte size " + std::to_string(data.size()) +
          " does not match shape " + shape.ToString() + " dtype " +
          std::string(DTypeName(dtype)));
    }
    return Status::OK();
  }

  // ---- Factories ----

  static Sample FromBytes(ByteView bytes, TensorShape shape,
                          DType dtype = DType::kUInt8) {
    // dllint-ok(hot-path-copy): explicitly a copying convenience for
    // callers holding transient views; zero-copy callers construct from a
    // Slice directly.
    return Sample(dtype, std::move(shape), Slice::CopyOf(bytes));
  }

  /// Scalar sample (empty shape).
  template <typename T>
  static Sample Scalar(T value, DType dtype) {
    ByteBuffer data(DTypeSize(dtype));
    StoreValue(data.data(), static_cast<double>(value), dtype);
    return Sample(dtype, TensorShape{}, std::move(data));
  }

  /// 1-D uint8 sample from UTF-8 text (htype "text" / "link[...]").
  static Sample FromString(std::string_view text) {
    return Sample(DType::kUInt8, TensorShape{text.size()},
                  BufferFromString(text));
  }

  /// 1-D sample from a typed vector.
  template <typename T>
  static Sample FromVector(const std::vector<T>& values, DType dtype) {
    ByteBuffer data(values.size() * DTypeSize(dtype));
    uint8_t* p = data.data();
    for (const T& v : values) {
      StoreValue(p, static_cast<double>(v), dtype);
      p += DTypeSize(dtype);
    }
    return Sample(dtype, TensorShape{values.size()}, std::move(data));
  }

  /// Empty sample (shape {0}) used as padding for sparse writes.
  static Sample EmptyOf(DType dtype) {
    return Sample(dtype, TensorShape{0}, {});
  }

  // ---- Element access ----

  /// Element `flat_index` as double (any dtype).
  double At(uint64_t flat_index) const {
    return LoadValue(data.data() + flat_index * DTypeSize(dtype), dtype);
  }

  /// Scalar convenience: first element.
  double AsDouble() const { return data.empty() ? 0.0 : At(0); }
  int64_t AsInt() const { return static_cast<int64_t>(AsDouble()); }
  std::string AsString() const {
    return std::string(reinterpret_cast<const char*>(data.data()),
                       data.size());
  }

  /// Loads/stores one element as double, converting per dtype.
  static double LoadValue(const uint8_t* p, DType t) {
    switch (t) {
      case DType::kBool:
      case DType::kUInt8:
        return *p;
      case DType::kInt8:
        return *reinterpret_cast<const int8_t*>(p);
      case DType::kUInt16: {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case DType::kInt16: {
        int16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case DType::kUInt32: {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case DType::kInt32: {
        int32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case DType::kUInt64: {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return static_cast<double>(v);
      }
      case DType::kInt64: {
        int64_t v;
        std::memcpy(&v, p, 8);
        return static_cast<double>(v);
      }
      case DType::kFloat32: {
        float v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case DType::kFloat64: {
        double v;
        std::memcpy(&v, p, 8);
        return v;
      }
    }
    return 0;
  }

  static void StoreValue(uint8_t* p, double value, DType t) {
    switch (t) {
      case DType::kBool:
        *p = value != 0 ? 1 : 0;
        return;
      case DType::kUInt8:
        *p = static_cast<uint8_t>(value);
        return;
      case DType::kInt8:
        *reinterpret_cast<int8_t*>(p) = static_cast<int8_t>(value);
        return;
      case DType::kUInt16: {
        uint16_t v = static_cast<uint16_t>(value);
        std::memcpy(p, &v, 2);
        return;
      }
      case DType::kInt16: {
        int16_t v = static_cast<int16_t>(value);
        std::memcpy(p, &v, 2);
        return;
      }
      case DType::kUInt32: {
        uint32_t v = static_cast<uint32_t>(value);
        std::memcpy(p, &v, 4);
        return;
      }
      case DType::kInt32: {
        int32_t v = static_cast<int32_t>(value);
        std::memcpy(p, &v, 4);
        return;
      }
      case DType::kUInt64: {
        uint64_t v = static_cast<uint64_t>(value);
        std::memcpy(p, &v, 8);
        return;
      }
      case DType::kInt64: {
        int64_t v = static_cast<int64_t>(value);
        std::memcpy(p, &v, 8);
        return;
      }
      case DType::kFloat32: {
        float v = static_cast<float>(value);
        std::memcpy(p, &v, 4);
        return;
      }
      case DType::kFloat64: {
        std::memcpy(p, &value, 8);
        return;
      }
    }
  }

  friend bool operator==(const Sample& a, const Sample& b) {
    return a.dtype == b.dtype && a.shape == b.shape && a.data == b.data;
  }
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_SAMPLE_H_
