#include "tql/value.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "util/macros.h"

namespace dl::tql {

namespace {

uint64_t NumElements(const std::vector<uint64_t>& shape) {
  uint64_t n = 1;
  for (uint64_t d : shape) n *= d;
  return n;
}

std::vector<uint64_t> RowMajorStrides(const std::vector<uint64_t>& shape) {
  std::vector<uint64_t> strides(shape.size(), 1);
  for (size_t d = shape.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * shape[d];
  }
  return strides;
}

/// True when `strides` step through `shape` row-major without gaps. A
/// dimension of extent 1 is never stepped, so its stride does not matter.
bool IsRowMajor(const std::vector<uint64_t>& shape,
                const std::vector<uint64_t>& strides) {
  uint64_t expected = 1;
  for (size_t d = shape.size(); d-- > 0;) {
    if (shape[d] != 1 && strides[d] != expected) return false;
    expected *= shape[d];
  }
  return true;
}

/// The accumulator SUM uses for stored type T: an exact integer for the
/// integer dtypes (128-bit for the 64-bit ones), double for the floats.
template <typename T>
using SumType = std::conditional_t<
    std::is_floating_point_v<T>, double,
    std::conditional_t<
        sizeof(T) == 8,
        std::conditional_t<std::is_signed_v<T>, __int128, unsigned __int128>,
        std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>>>;

/// MIN (kMax false) or MAX over the stored type. Integers compare in their
/// own type and convert once, which is monotone and so equals comparing
/// converted values; floats compare as doubles from ±HUGE_VAL, skipping
/// NaNs as std::min/std::max do.
template <bool kMax>
double ReduceExtreme(const NdArray& a) {
  if (a.size() == 0) return 0.0;
  return VisitDType(a.dtype(), [&](auto tag) -> double {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      T m = kMax ? std::numeric_limits<T>::lowest()
                 : std::numeric_limits<T>::max();
      ForEachAs<T>(a, [&](T v) { m = kMax ? std::max(m, v) : std::min(m, v); });
      return static_cast<double>(m);
    } else {
      double m = kMax ? -HUGE_VAL : HUGE_VAL;
      ForEachAs<T>(a, [&](T v) {
        double d = v;
        m = kMax ? std::max(m, d) : std::min(m, d);
      });
      return m;
    }
  });
}

/// out[i] = op(a[i], b[i]) as type Out, broadcasting a scalar side; a
/// scalar result is an inline float64 scalar.
template <typename Out, typename Op>
Result<NdArray> Combine(const NdArray& a, const NdArray& b, Op op,
                        const char* op_name, tsf::DType out_dtype) {
  if (a.IsScalar() && b.IsScalar()) {
    return NdArray::Scalar(static_cast<double>(op(a.AsScalar(), b.AsScalar())));
  }
  bool scalar_lhs = a.IsScalar();
  if (!scalar_lhs && !b.IsScalar() && a.shape() != b.shape()) {
    return Status::InvalidArgument(std::string("tql: shape mismatch in '") +
                                   op_name + "': " + a.ToString() + " vs " +
                                   b.ToString());
  }
  const NdArray& shaped = scalar_lhs ? b : a;
  std::shared_ptr<Buffer> out = Buffer::Allocate(shaped.size() * sizeof(Out));
  uint8_t* o = out->mutable_data();
  auto put = [&o](auto r) {
    Out v = static_cast<Out>(r);
    std::memcpy(o, &v, sizeof(Out));
    o += sizeof(Out);
  };
  if (scalar_lhs) {
    double av = a.AsScalar();
    ForEachDouble(b, [&](double v) { put(op(av, v)); });
  } else if (b.IsScalar()) {
    double bv = b.AsScalar();
    ForEachDouble(a, [&](double v) { put(op(v, bv)); });
  } else {
    std::vector<double> lhs = a.data();
    size_t i = 0;
    ForEachDouble(b, [&](double v) { put(op(lhs[i++], v)); });
  }
  return NdArray::Contiguous(out_dtype, shaped.shape(),
                             Slice(SharedBuffer(std::move(out))));
}

int64_t ClampIndex(int64_t idx, uint64_t dim) {
  if (idx < 0) idx += static_cast<int64_t>(dim);
  if (idx < 0) idx = 0;
  if (idx > static_cast<int64_t>(dim)) idx = static_cast<int64_t>(dim);
  return idx;
}

}  // namespace

NdArray::NdArray(std::vector<uint64_t> shape, std::vector<double> data) {
  std::shared_ptr<Buffer> bytes =
      Buffer::Allocate(data.size() * sizeof(double));
  if (!data.empty()) {
    std::memcpy(bytes->mutable_data(), data.data(),
                data.size() * sizeof(double));
  }
  *this = Contiguous(tsf::DType::kFloat64, std::move(shape),
                     Slice(SharedBuffer(std::move(bytes))));
}

NdArray NdArray::Scalar(double v) {
  NdArray a;
  a.inline_ = true;
  a.scalar_ = v;
  a.size_ = 1;
  return a;
}

NdArray NdArray::FromSample(const tsf::Sample& s) {
  return Contiguous(s.dtype, s.shape.dims(), s.data);
}

NdArray NdArray::Contiguous(tsf::DType dtype, std::vector<uint64_t> shape,
                            Slice bytes) {
  NdArray a;
  a.dtype_ = dtype;
  a.size_ = std::min<uint64_t>(NumElements(shape),
                               bytes.size() / tsf::DTypeSize(dtype));
  a.bytes_ = std::move(bytes);
  a.strides_ = RowMajorStrides(shape);
  a.shape_ = std::move(shape);
  return a;
}

NdArray NdArray::Restrided(std::vector<uint64_t> shape,
                           std::vector<uint64_t> strides,
                           uint64_t offset) const {
  NdArray a = *this;
  a.size_ = NumElements(shape);
  a.contiguous_ = IsRowMajor(shape, strides);
  a.shape_ = std::move(shape);
  a.strides_ = std::move(strides);
  a.offset_ += offset;
  return a;
}

double NdArray::AsScalar() const {
  if (size_ == 0) return 0.0;
  return VisitDType(dtype_, [&](auto tag) {
    using T = decltype(tag);
    T v;
    std::memcpy(&v, base(), sizeof(T));
    return static_cast<double>(v);
  });
}

std::vector<double> NdArray::data() const {
  std::vector<double> out;
  out.reserve(size_);
  ForEachDouble(*this, [&](double v) { out.push_back(v); });
  return out;
}

tsf::Sample NdArray::ToSample(tsf::DType dtype) const {
  size_t es = tsf::DTypeSize(dtype);
  ByteBuffer staging(size_ * es);
  uint8_t* p = staging.data();
  ForEachDouble(*this, [&](double v) {
    tsf::Sample::StoreValue(p, v, dtype);
    p += es;
  });
  return tsf::Sample(dtype, tsf::TensorShape(shape_),
                     Slice(std::move(staging)));
}

std::string NdArray::ToString() const {
  if (IsScalar()) {
    double v = AsScalar();
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      return std::to_string(static_cast<long long>(v));
    }
    return std::to_string(v);
  }
  std::string out = "array(";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) out += "x";
    out += std::to_string(shape_[i]);
  }
  out += ")";
  return out;
}

bool Value::Truthy() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kString:
      return !str_.empty();
    case Kind::kArray:
      return ReduceAny(array_);
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kString:
      return str_;
    case Kind::kArray:
      return array_.ToString();
  }
  return "";
}

Result<NdArray> ElementwiseBinary(const NdArray& a, const NdArray& b,
                                  double (*op)(double, double),
                                  const char* op_name) {
  return Combine<double>(a, b, op, op_name, tsf::DType::kFloat64);
}

Result<NdArray> CompareBinary(const NdArray& a, const NdArray& b,
                              bool (*op)(double, double),
                              const char* op_name) {
  return Combine<uint8_t>(a, b, op, op_name, tsf::DType::kBool);
}

Result<NdArray> SliceArray(const NdArray& arr,
                           const std::vector<SliceSpec>& specs) {
  if (specs.size() > arr.ndim()) {
    return Status::InvalidArgument("tql: too many indices for array of rank " +
                                   std::to_string(arr.ndim()));
  }
  size_t nd = arr.ndim();
  // The view's first element and, per kept dim, its extent and stride.
  uint64_t offset = 0;
  std::vector<uint64_t> shape, strides;
  for (size_t d = 0; d < nd; ++d) {
    uint64_t dim = arr.shape()[d];
    uint64_t stride = arr.strides()[d];
    if (d >= specs.size()) {
      shape.push_back(dim);
      strides.push_back(stride);
      continue;
    }
    const SliceSpec& s = specs[d];
    if (s.is_index) {
      int64_t idx = s.index;
      if (idx < 0) idx += static_cast<int64_t>(dim);
      if (idx < 0 || idx >= static_cast<int64_t>(dim)) {
        return Status::OutOfRange("tql: index " + std::to_string(s.index) +
                                  " out of bounds for dim " +
                                  std::to_string(dim));
      }
      offset += static_cast<uint64_t>(idx) * stride;
      continue;
    }
    int64_t st = s.has_step ? s.step : 1;
    if (st == 0) return Status::InvalidArgument("tql: slice step 0");
    if (st < 0) {
      return Status::NotImplemented("tql: negative slice steps");
    }
    int64_t lo = s.has_start ? ClampIndex(s.start, dim) : 0;
    int64_t hi = s.has_stop ? ClampIndex(s.stop, dim)
                            : static_cast<int64_t>(dim);
    if (hi < lo) hi = lo;
    offset += static_cast<uint64_t>(lo) * stride;
    shape.push_back(static_cast<uint64_t>((hi - lo + st - 1) / st));
    strides.push_back(stride * static_cast<uint64_t>(st));
  }
  // An empty view addresses nothing; keep its offset inside the bytes.
  if (NumElements(shape) == 0 || arr.size() == 0) offset = 0;
  return arr.Restrided(std::move(shape), std::move(strides), offset);
}

double ReduceSum(const NdArray& a) {
  return VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    SumType<T> s = 0;
    ForEachAs<T>(a, [&](T v) { s += v; });
    return static_cast<double>(s);
  });
}

double ReduceMin(const NdArray& a) { return ReduceExtreme<false>(a); }

double ReduceMax(const NdArray& a) { return ReduceExtreme<true>(a); }

double ReduceMean(const NdArray& a) {
  return a.size() == 0 ? 0.0 : ReduceSum(a) / a.size();
}

double ReduceStd(const NdArray& a) {
  if (a.size() < 2) return 0.0;
  double mean = ReduceMean(a);
  double ss = 0;
  ForEachDouble(a, [&](double v) { ss += (v - mean) * (v - mean); });
  return std::sqrt(ss / a.size());
}

bool ReduceAny(const NdArray& a) {
  return VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    bool any = false;
    ForEachAs<T>(a, [&](T v) { any |= v != 0; });
    return any;
  });
}

bool ReduceAll(const NdArray& a) {
  return VisitDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    bool all = true;
    ForEachAs<T>(a, [&](T v) { all &= v != 0; });
    return all;
  });
}

double ReduceL2(const NdArray& a) {
  double ss = 0;
  ForEachDouble(a, [&](double v) { ss += v * v; });
  return std::sqrt(ss);
}

namespace {

double BoxIou(const double* a, const double* b) {
  // (x, y, w, h) boxes.
  double ax0 = a[0], ay0 = a[1], ax1 = a[0] + a[2], ay1 = a[1] + a[3];
  double bx0 = b[0], by0 = b[1], bx1 = b[0] + b[2], by1 = b[1] + b[3];
  double ix = std::max(0.0, std::min(ax1, bx1) - std::max(ax0, bx0));
  double iy = std::max(0.0, std::min(ay1, by1) - std::max(ay0, by0));
  double inter = ix * iy;
  double uni = a[2] * a[3] + b[2] * b[3] - inter;
  return uni > 0 ? inter / uni : 0.0;
}

Status CheckBoxes(const NdArray& a, const char* what) {
  if (a.ndim() == 1 && a.shape()[0] == 4) return Status::OK();
  if (a.ndim() == 2 && a.shape()[1] == 4) return Status::OK();
  return Status::InvalidArgument(std::string("tql: ") + what +
                                 " must be (n,4) or (4,) boxes, got " +
                                 a.ToString());
}

size_t NumBoxes(const NdArray& a) {
  return a.ndim() == 1 ? 1 : a.shape()[0];
}

}  // namespace

Result<double> MeanBestIou(const NdArray& a, const NdArray& b) {
  DL_RETURN_IF_ERROR(CheckBoxes(a, "IOU lhs"));
  DL_RETURN_IF_ERROR(CheckBoxes(b, "IOU rhs"));
  size_t na = NumBoxes(a), nb = NumBoxes(b);
  if (na == 0 || nb == 0) return 0.0;
  std::vector<double> ad = a.data(), bd = b.data();
  double total = 0;
  for (size_t i = 0; i < na; ++i) {
    double best = 0;
    for (size_t j = 0; j < nb; ++j) {
      best = std::max(best, BoxIou(ad.data() + i * 4, bd.data() + j * 4));
    }
    total += best;
  }
  return total / static_cast<double>(na);
}

Result<NdArray> NormalizeBoxes(const NdArray& boxes, const NdArray& window) {
  DL_RETURN_IF_ERROR(CheckBoxes(boxes, "NORMALIZE boxes"));
  if (window.size() != 4) {
    return Status::InvalidArgument(
        "tql: NORMALIZE window must have 4 values [x, y, w, h]");
  }
  std::vector<double> win = window.data();
  double wx = win[0], wy = win[1], ww = win[2], wh = win[3];
  if (ww == 0 || wh == 0) {
    return Status::InvalidArgument("tql: NORMALIZE window has zero extent");
  }
  std::vector<double> in = boxes.data();
  std::vector<double> out(in.size());
  size_t n = NumBoxes(boxes);
  for (size_t i = 0; i < n; ++i) {
    const double* b = in.data() + i * 4;
    double* o = out.data() + i * 4;
    o[0] = (b[0] - wx) / ww;
    o[1] = (b[1] - wy) / wh;
    o[2] = b[2] / ww;
    o[3] = b[3] / wh;
  }
  return NdArray(boxes.shape(), std::move(out));
}

}  // namespace dl::tql
