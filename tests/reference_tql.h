// Test-only reference TQL evaluator: the double evaluator the engine ran
// before typed tensor views. Every array value is a std::vector<double>,
// every cell a tensor expression reads is converted into one, and every
// kernel works on that copy. Its results define the engine's by example:
// tests evaluate the same expressions with both and compare bit for bit.

#ifndef DEEPLAKE_TESTS_REFERENCE_TQL_H_
#define DEEPLAKE_TESTS_REFERENCE_TQL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tql/ast.h"
#include "tsf/dataset.h"
#include "tsf/sample.h"
#include "util/result.h"

namespace dl::tql::reference {

/// N-dimensional numeric array — the runtime value of TQL expressions
/// (paper §4.4: "TQL extends SQL with numeric computations on top of
/// multi-dimensional columns"). Elements are held as doubles during
/// evaluation; `ToSample` converts back to a storage dtype.
class NdArray {
 public:
  NdArray() = default;
  NdArray(std::vector<uint64_t> shape, std::vector<double> data)
      : shape_(std::move(shape)), data_(std::move(data)) {}

  static NdArray Scalar(double v) { return NdArray({}, {v}); }
  static NdArray FromSample(const tsf::Sample& s);

  const std::vector<uint64_t>& shape() const { return shape_; }
  size_t ndim() const { return shape_.size(); }
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }
  size_t size() const { return data_.size(); }

  bool IsScalar() const { return shape_.empty() && data_.size() == 1; }
  double AsScalar() const { return data_.empty() ? 0.0 : data_[0]; }
  bool AsBool() const { return AsScalar() != 0.0; }

  /// Converts back to a typed storage sample.
  tsf::Sample ToSample(tsf::DType dtype) const;

  std::string ToString() const;

 private:
  std::vector<uint64_t> shape_;
  std::vector<double> data_;
};

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

/// Elementwise binary op with scalar<->array broadcasting; shapes must
/// otherwise match exactly.
Result<NdArray> ElementwiseBinary(const NdArray& a, const NdArray& b,
                                  double (*op)(double, double),
                                  const char* op_name);

/// NumPy-style per-dimension slice spec. Absent fields keep defaults;
/// negative indices count from the end.
struct SliceSpec {
  bool is_index = false;   // single index: drops the dimension
  int64_t index = 0;
  bool has_start = false, has_stop = false, has_step = false;
  int64_t start = 0, stop = 0, step = 1;
};

/// arr[spec0, spec1, ...]; trailing unspecified dims pass through whole.
Result<NdArray> SliceArray(const NdArray& arr,
                           const std::vector<SliceSpec>& specs);

/// Reductions over all elements.
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

/// Per-row evaluation context over one dataset row (no JOIN bindings):
/// column references load the row's cell and convert it with
/// NdArray::FromSample; loaded cells are cached per context.
class EvalContext {
 public:
  EvalContext(tsf::Dataset* dataset, uint64_t row)
      : dataset_(dataset), row_(row) {}

  uint64_t row() const { return row_; }
  Result<Value> Column(const std::string& name);
  Result<tsf::TensorShape> ColumnShape(const std::string& name) const;

 private:
  tsf::Dataset* dataset_;
  uint64_t row_;
  std::map<std::string, Value> cache_;
};

/// Evaluates an expression for one row.
Result<Value> Evaluate(const Expr& expr, EvalContext& ctx);

}  // namespace dl::tql::reference

#endif  // DEEPLAKE_TESTS_REFERENCE_TQL_H_
