#ifndef DEEPLAKE_TQL_VALUE_H_
#define DEEPLAKE_TQL_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tsf/sample.h"
#include "tsf/tile_encoder.h"
#include "util/buffer.h"
#include "util/result.h"

namespace dl::tql {

/// N-dimensional numeric array — the runtime value of TQL expressions
/// (paper §4.4: "TQL extends SQL with numeric computations on top of
/// multi-dimensional columns"). An NdArray is a dtype-tagged, strided view:
/// a Slice over the elements in their stored dtype (its keep-alive pins the
/// decoded sample), a shape, per-dimension element strides and an element
/// offset. A column reference wraps the decoded sample without converting
/// it, slicing returns a view of the same bytes, and reductions and
/// comparisons read the stored dtype. Only elementwise arithmetic produces
/// a new float64 array. Copying an NdArray copies the view, not the bytes.
class NdArray {
 public:
  NdArray() = default;
  /// A contiguous float64 array holding `data` (row-major).
  NdArray(std::vector<uint64_t> shape, std::vector<double> data);

  /// A rank-0 float64 array; held inline, without a buffer.
  static NdArray Scalar(double v);
  /// A view over the sample's bytes in its stored dtype: no element is
  /// copied or converted. `s.data` holds at least s.ExpectedBytes() bytes
  /// (Sample::Validate).
  static NdArray FromSample(const tsf::Sample& s);
  /// A contiguous row-major array of `dtype` over `bytes`. It holds the
  /// product of `shape` elements, or as many whole elements as `bytes` has
  /// when that is fewer.
  static NdArray Contiguous(tsf::DType dtype, std::vector<uint64_t> shape,
                            Slice bytes);

  tsf::DType dtype() const { return dtype_; }
  const std::vector<uint64_t>& shape() const { return shape_; }
  /// Element (not byte) strides, one per dimension.
  const std::vector<uint64_t>& strides() const { return strides_; }
  size_t ndim() const { return shape_.size(); }
  /// Number of elements.
  size_t size() const { return size_; }
  /// True when the elements lie row-major and back to back from base().
  bool contiguous() const { return contiguous_; }
  /// Address of the view's first element.
  const uint8_t* base() const {
    const uint8_t* bytes = inline_ ? reinterpret_cast<const uint8_t*>(&scalar_)
                                   : bytes_.data();
    return bytes + offset_ * tsf::DTypeSize(dtype_);
  }

  bool IsScalar() const { return shape_.empty() && size_ == 1; }
  double AsScalar() const;
  bool AsBool() const { return AsScalar() != 0.0; }

  /// The elements converted to double, in row-major order (a copy).
  std::vector<double> data() const;

  /// Converts to a typed storage sample, element by element through double.
  tsf::Sample ToSample(tsf::DType dtype) const;

  std::string ToString() const;

  /// A view of the same bytes laid out as `shape` with element `strides`
  /// from element `offset` of this view. The caller keeps every element it
  /// addresses inside this view (SliceArray).
  NdArray Restrided(std::vector<uint64_t> shape,
                    std::vector<uint64_t> strides, uint64_t offset) const;

 private:
  tsf::DType dtype_ = tsf::DType::kFloat64;
  // dllint-ok(slice-owner): bytes_' keep-alive (Slice::owner) pins the
  // decoded sample or the float64 buffer a kernel allocated; NdArray is a
  // view and deliberately stores no second owner.
  Slice bytes_;
  std::vector<uint64_t> shape_;
  std::vector<uint64_t> strides_;
  uint64_t offset_ = 0;  // in elements, from the start of bytes_
  uint64_t size_ = 0;
  bool contiguous_ = true;
  bool inline_ = false;  // the one element is scalar_, not in bytes_
  double scalar_ = 0;
};

// ---- Element walks ---------------------------------------------------------

/// Calls `f(T{})` with T the C++ type `dtype` stores (bool as uint8_t): the
/// one dtype dispatch of every kernel, so each kernel is written once as a
/// template over T.
template <typename F>
decltype(auto) VisitDType(tsf::DType dtype, F&& f) {
  switch (dtype) {
    case tsf::DType::kBool:
    case tsf::DType::kUInt8:
      return f(uint8_t{});
    case tsf::DType::kInt8:
      return f(int8_t{});
    case tsf::DType::kUInt16:
      return f(uint16_t{});
    case tsf::DType::kInt16:
      return f(int16_t{});
    case tsf::DType::kUInt32:
      return f(uint32_t{});
    case tsf::DType::kInt32:
      return f(int32_t{});
    case tsf::DType::kUInt64:
      return f(uint64_t{});
    case tsf::DType::kInt64:
      return f(int64_t{});
    case tsf::DType::kFloat32:
      return f(float{});
    case tsf::DType::kFloat64:
      break;
  }
  return f(double{});
}

/// Calls `f(v)` on every element of `a` read as its stored type T (the
/// type VisitDType passes for a.dtype()), in row-major order. A contiguous
/// view is one flat run; a strided one walks its outer coordinates with
/// tsf::NextCoord and its innermost dimension as a run.
template <typename T, typename F>
void ForEachAs(const NdArray& a, F&& f) {
  const uint64_t n = a.size();
  if (n == 0) return;
  const uint8_t* p = a.base();
  auto load = [](const uint8_t* q) {
    T v;
    std::memcpy(&v, q, sizeof(T));
    return v;
  };
  if (a.contiguous()) {
    for (uint64_t i = 0; i < n; ++i) f(load(p + i * sizeof(T)));
    return;
  }
  const std::vector<uint64_t>& shape = a.shape();
  const std::vector<uint64_t>& strides = a.strides();
  size_t outer_rank = shape.size() - 1;
  std::vector<uint64_t> outer(shape.begin(), shape.end() - 1);
  std::vector<uint64_t> coord(outer_rank, 0);
  uint64_t run = shape.back();
  uint64_t step = strides.back() * sizeof(T);
  do {
    uint64_t off = 0;
    for (size_t d = 0; d < outer_rank; ++d) off += coord[d] * strides[d];
    const uint8_t* q = p + off * sizeof(T);
    for (uint64_t i = 0; i < run; ++i) f(load(q + i * step));
  } while (tsf::NextCoord(coord, outer));
}

/// Calls `f(double)` on every element of `a`, in row-major order, each
/// converted exactly as tsf::Sample::LoadValue converts it.
template <typename F>
void ForEachDouble(const NdArray& a, F&& f) {
  VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    ForEachAs<T>(a, [&](T v) { f(static_cast<double>(v)); });
  });
}

/// A float64 array of a's shape holding f(a[i]) for every element.
template <typename F>
NdArray MapToFloat64(const NdArray& a, F&& f) {
  if (a.IsScalar()) return NdArray::Scalar(f(a.AsScalar()));
  std::shared_ptr<Buffer> out = Buffer::Allocate(a.size() * sizeof(double));
  uint8_t* o = out->mutable_data();
  ForEachDouble(a, [&](double v) {
    double r = f(v);
    std::memcpy(o, &r, sizeof(double));
    o += sizeof(double);
  });
  return NdArray::Contiguous(tsf::DType::kFloat64, a.shape(),
                             Slice(SharedBuffer(std::move(out))));
}

/// A TQL runtime value: numeric array, UTF-8 string, or null (missing
/// cell / empty sample).
class Value {
 public:
  enum class Kind { kNull, kArray, kString };

  Value() : kind_(Kind::kNull) {}
  Value(NdArray arr)  // NOLINT(runtime/explicit)
      : kind_(Kind::kArray), array_(std::move(arr)) {}
  Value(std::string s)  // NOLINT(runtime/explicit)
      : kind_(Kind::kString), str_(std::move(s)) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(NdArray::Scalar(b ? 1.0 : 0.0)); }
  static Value Number(double d) { return Value(NdArray::Scalar(d)); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }

  const NdArray& array() const { return array_; }
  NdArray& array() { return array_; }
  const std::string& str() const { return str_; }

  /// Truthiness: null -> false; string -> non-empty; array -> any nonzero.
  bool Truthy() const;

  std::string ToString() const;

 private:
  Kind kind_;
  NdArray array_;
  std::string str_;
};

// ---- Kernels -------------------------------------------------------------

/// Elementwise arithmetic with scalar<->array broadcasting into a new
/// float64 array; shapes must otherwise match exactly.
Result<NdArray> ElementwiseBinary(const NdArray& a, const NdArray& b,
                                  double (*op)(double, double),
                                  const char* op_name);

/// Elementwise comparison, broadcast like ElementwiseBinary, into a bool
/// array (a float64 scalar when both sides are scalars). Elements compare
/// as doubles.
Result<NdArray> CompareBinary(const NdArray& a, const NdArray& b,
                              bool (*op)(double, double), const char* op_name);

/// NumPy-style per-dimension slice spec. Absent fields keep defaults;
/// negative indices count from the end.
struct SliceSpec {
  bool is_index = false;   // single index: drops the dimension
  int64_t index = 0;
  bool has_start = false, has_stop = false, has_step = false;
  int64_t start = 0, stop = 0, step = 1;
};

/// arr[spec0, spec1, ...]; trailing unspecified dims pass through whole.
/// Returns a view of arr's bytes.
Result<NdArray> SliceArray(const NdArray& arr,
                           const std::vector<SliceSpec>& specs);

/// Reductions over all elements, reading the stored dtype.
/// - SUM and MEAN of an integer dtype add exactly (128-bit for the 64-bit
///   dtypes) and convert to double once; a float dtype adds in double, in
///   element order.
/// - MIN and MAX of an empty array are 0; NaNs are skipped.
/// - STD is the population deviation about that mean, its squares added in
///   double in element order.
double ReduceSum(const NdArray& a);
double ReduceMin(const NdArray& a);
double ReduceMax(const NdArray& a);
double ReduceMean(const NdArray& a);
double ReduceStd(const NdArray& a);
bool ReduceAny(const NdArray& a);
bool ReduceAll(const NdArray& a);
double ReduceL2(const NdArray& a);

/// Mean best-intersection-over-union between two (n,4) box arrays in
/// (x, y, w, h) layout: for every box in `a` take the best IoU against
/// `b`, then average (the paper's Fig. 5 IOU(boxes, "training/boxes")).
Result<double> MeanBestIou(const NdArray& a, const NdArray& b);

/// Normalizes an (n,4) box array against a crop window [x, y, w, h]:
/// out = ((bx - x)/w, (by - y)/h, bw/w, bh/h) — the Fig. 5 NORMALIZE.
Result<NdArray> NormalizeBoxes(const NdArray& boxes, const NdArray& window);

}  // namespace dl::tql

#endif  // DEEPLAKE_TQL_VALUE_H_
