#include "reference_tql.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"
#include "util/string_util.h"

namespace dl::tql::reference {

NdArray NdArray::FromSample(const tsf::Sample& s) {
  if (s.shape.IsEmptySample()) {
    return NdArray(s.shape.dims(), {});
  }
  std::vector<double> data(s.NumElements());
  size_t es = tsf::DTypeSize(s.dtype);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = tsf::Sample::LoadValue(s.data.data() + i * es, s.dtype);
  }
  return NdArray(s.shape.dims(), std::move(data));
}

tsf::Sample NdArray::ToSample(tsf::DType dtype) const {
  size_t es = tsf::DTypeSize(dtype);
  ByteBuffer staging(data_.size() * es);
  for (size_t i = 0; i < data_.size(); ++i) {
    tsf::Sample::StoreValue(staging.data() + i * es, data_[i], dtype);
  }
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
  if (a.IsScalar() && !b.IsScalar()) {
    NdArray out({b.shape()}, std::vector<double>(b.size()));
    double av = a.AsScalar();
    for (size_t i = 0; i < b.size(); ++i) out.data()[i] = op(av, b.data()[i]);
    return out;
  }
  if (b.IsScalar()) {
    NdArray out({a.shape()}, std::vector<double>(a.size()));
    double bv = b.AsScalar();
    for (size_t i = 0; i < a.size(); ++i) out.data()[i] = op(a.data()[i], bv);
    return out;
  }
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument(std::string("tql: shape mismatch in '") +
                                   op_name + "': " + a.ToString() + " vs " +
                                   b.ToString());
  }
  NdArray out({a.shape()}, std::vector<double>(a.size()));
  for (size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = op(a.data()[i], b.data()[i]);
  }
  return out;
}

namespace {

int64_t ClampIndex(int64_t idx, uint64_t dim) {
  if (idx < 0) idx += static_cast<int64_t>(dim);
  if (idx < 0) idx = 0;
  if (idx > static_cast<int64_t>(dim)) idx = static_cast<int64_t>(dim);
  return idx;
}

}  // namespace

Result<NdArray> SliceArray(const NdArray& arr,
                           const std::vector<SliceSpec>& specs) {
  if (specs.size() > arr.ndim()) {
    return Status::InvalidArgument("tql: too many indices for array of rank " +
                                   std::to_string(arr.ndim()));
  }
  size_t nd = arr.ndim();
  // Per-dim: start, count, step; and whether the dim is dropped.
  std::vector<int64_t> start(nd, 0), count(nd), step(nd, 1);
  std::vector<bool> dropped(nd, false);
  for (size_t d = 0; d < nd; ++d) {
    uint64_t dim = arr.shape()[d];
    if (d < specs.size()) {
      const SliceSpec& s = specs[d];
      if (s.is_index) {
        int64_t idx = s.index;
        if (idx < 0) idx += static_cast<int64_t>(dim);
        if (idx < 0 || idx >= static_cast<int64_t>(dim)) {
          return Status::OutOfRange("tql: index " + std::to_string(s.index) +
                                    " out of bounds for dim " +
                                    std::to_string(dim));
        }
        start[d] = idx;
        count[d] = 1;
        dropped[d] = true;
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
      start[d] = lo;
      step[d] = st;
      count[d] = (hi - lo + st - 1) / st;
    } else {
      count[d] = static_cast<int64_t>(dim);
    }
  }
  // Output shape drops indexed dims.
  std::vector<uint64_t> out_shape;
  uint64_t out_elems = 1;
  for (size_t d = 0; d < nd; ++d) {
    out_elems *= static_cast<uint64_t>(count[d]);
    if (!dropped[d]) out_shape.push_back(static_cast<uint64_t>(count[d]));
  }
  // Strides of the input.
  std::vector<uint64_t> strides(nd, 1);
  for (size_t d = nd; d-- > 1;) strides[d - 1] = strides[d] * arr.shape()[d];

  std::vector<double> out_data;
  out_data.reserve(out_elems);
  std::vector<int64_t> idx(nd, 0);
  if (out_elems > 0) {
    while (true) {
      uint64_t off = 0;
      for (size_t d = 0; d < nd; ++d) {
        off += static_cast<uint64_t>(start[d] + idx[d] * step[d]) * strides[d];
      }
      out_data.push_back(arr.data()[off]);
      ptrdiff_t d = static_cast<ptrdiff_t>(nd) - 1;
      while (d >= 0) {
        if (++idx[d] < count[d]) break;
        idx[d] = 0;
        --d;
      }
      if (d < 0) break;
    }
  }
  return NdArray(std::move(out_shape), std::move(out_data));
}

double ReduceSum(const NdArray& a) {
  double s = 0;
  for (double v : a.data()) s += v;
  return s;
}

double ReduceMin(const NdArray& a) {
  double m = HUGE_VAL;
  for (double v : a.data()) m = std::min(m, v);
  return a.data().empty() ? 0.0 : m;
}

double ReduceMax(const NdArray& a) {
  double m = -HUGE_VAL;
  for (double v : a.data()) m = std::max(m, v);
  return a.data().empty() ? 0.0 : m;
}

double ReduceMean(const NdArray& a) {
  return a.data().empty() ? 0.0 : ReduceSum(a) / a.data().size();
}

double ReduceStd(const NdArray& a) {
  if (a.data().size() < 2) return 0.0;
  double mean = ReduceMean(a);
  double ss = 0;
  for (double v : a.data()) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / a.data().size());
}

bool ReduceAny(const NdArray& a) {
  for (double v : a.data()) {
    if (v != 0.0) return true;
  }
  return false;
}

bool ReduceAll(const NdArray& a) {
  for (double v : a.data()) {
    if (v == 0.0) return false;
  }
  return true;
}

double ReduceL2(const NdArray& a) {
  double ss = 0;
  for (double v : a.data()) ss += v * v;
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
  double total = 0;
  for (size_t i = 0; i < na; ++i) {
    double best = 0;
    for (size_t j = 0; j < nb; ++j) {
      best = std::max(best, BoxIou(a.data().data() + i * 4,
                                   b.data().data() + j * 4));
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
  double wx = window.data()[0], wy = window.data()[1];
  double ww = window.data()[2], wh = window.data()[3];
  if (ww == 0 || wh == 0) {
    return Status::InvalidArgument("tql: NORMALIZE window has zero extent");
  }
  NdArray out({boxes.shape()}, std::vector<double>(boxes.size()));
  size_t n = NumBoxes(boxes);
  for (size_t i = 0; i < n; ++i) {
    const double* in = boxes.data().data() + i * 4;
    double* o = out.data().data() + i * 4;
    o[0] = (in[0] - wx) / ww;
    o[1] = (in[1] - wy) / wh;
    o[2] = in[2] / ww;
    o[3] = in[3] / wh;
  }
  return out;
}

namespace {

double OpAdd(double a, double b) { return a + b; }
double OpSub(double a, double b) { return a - b; }
double OpMul(double a, double b) { return a * b; }
double OpDiv(double a, double b) { return b != 0 ? a / b : 0.0; }
double OpMod(double a, double b) {
  return b != 0 ? std::fmod(a, b) : 0.0;
}
double OpEq(double a, double b) { return a == b ? 1 : 0; }
double OpNe(double a, double b) { return a != b ? 1 : 0; }
double OpLt(double a, double b) { return a < b ? 1 : 0; }
double OpLe(double a, double b) { return a <= b ? 1 : 0; }
double OpGt(double a, double b) { return a > b ? 1 : 0; }
double OpGe(double a, double b) { return a >= b ? 1 : 0; }

/// Resolves a value that should be an array; string values are treated as
/// tensor references (the paper's IOU(boxes, "training/boxes") idiom).
Result<NdArray> AsArray(const Value& v, EvalContext& ctx,
                        const char* what) {
  if (v.is_array()) return v.array();
  if (v.is_string()) {
    DL_ASSIGN_OR_RETURN(Value col, ctx.Column(v.str()));
    if (col.is_array()) return col.array();
    return Status::InvalidArgument(std::string("tql: ") + what +
                                   ": tensor '" + v.str() +
                                   "' is not numeric");
  }
  return Status::InvalidArgument(std::string("tql: ") + what +
                                 " expects an array, got null");
}

/// A shape as a 1-d array of its dimensions (what SHAPE returns).
Value DimsValue(const std::vector<uint64_t>& shape) {
  std::vector<double> dims(shape.begin(), shape.end());
  uint64_t rank = dims.size();
  return Value(NdArray({rank}, std::move(dims)));
}

Result<int64_t> AsIndex(const Value& v, const char* what) {
  if (!v.is_array() || !v.array().IsScalar()) {
    return Status::InvalidArgument(std::string("tql: ") + what +
                                   " must be a scalar");
  }
  return static_cast<int64_t>(v.array().AsScalar());
}

}  // namespace

Result<Value> EvalContext::Column(const std::string& name) {
  auto it = cache_.find(name);
  if (it != cache_.end()) return it->second;
  DL_ASSIGN_OR_RETURN(tsf::Tensor * tensor, dataset_->GetTensor(name));
  Value v;
  if (row_ < tensor->NumSamples()) {
    DL_ASSIGN_OR_RETURN(tsf::Sample s, tensor->Read(row_));
    if (s.shape.IsEmptySample() && s.data.empty() && s.shape.ndim() > 0) {
      v = Value::Null();
    } else if (tensor->meta().htype.kind == tsf::HtypeKind::kText ||
               tensor->meta().htype.is_link) {
      v = Value(s.AsString());
    } else {
      v = Value(NdArray::FromSample(s));
    }
  }
  cache_[name] = v;
  return v;
}

Result<tsf::TensorShape> EvalContext::ColumnShape(
    const std::string& name) const {
  DL_ASSIGN_OR_RETURN(tsf::Tensor * t, dataset_->GetTensor(name));
  return t->ShapeAt(row_);
}

Result<Value> Evaluate(const Expr& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kNumber:
      return Value::Number(expr.number);
    case Expr::Kind::kString:
      return Value(expr.text);
    case Expr::Kind::kColumn:
      return ctx.Column(expr.text);
    case Expr::Kind::kStarAll:
      return Status::InvalidArgument("tql: '*' is only valid in SELECT");
    case Expr::Kind::kArray: {
      std::vector<double> data;
      data.reserve(expr.args.size());
      for (const auto& arg : expr.args) {
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(*arg, ctx));
        if (!v.is_array() || !v.array().IsScalar()) {
          return Status::InvalidArgument(
              "tql: array literal elements must be scalars");
        }
        data.push_back(v.array().AsScalar());
      }
      uint64_t count = data.size();
      return Value(NdArray({count}, std::move(data)));
    }
    case Expr::Kind::kUnary: {
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*expr.lhs, ctx));
      if (expr.uop == UnaryOp::kNot) {
        return Value::Bool(!v.Truthy());
      }
      DL_ASSIGN_OR_RETURN(NdArray arr, AsArray(v, ctx, "unary -"));
      for (double& d : arr.data()) d = -d;
      return Value(std::move(arr));
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logical operators on truthiness.
      if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
        DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
        bool lt = l.Truthy();
        if (expr.bop == BinaryOp::kAnd && !lt) return Value::Bool(false);
        if (expr.bop == BinaryOp::kOr && lt) return Value::Bool(true);
        DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
        return Value::Bool(r.Truthy());
      }
      DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
      DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
      // String comparisons.
      if (l.is_string() && r.is_string()) {
        switch (expr.bop) {
          case BinaryOp::kEq:
            return Value::Bool(l.str() == r.str());
          case BinaryOp::kNe:
            return Value::Bool(l.str() != r.str());
          case BinaryOp::kLt:
            return Value::Bool(l.str() < r.str());
          case BinaryOp::kLe:
            return Value::Bool(l.str() <= r.str());
          case BinaryOp::kGt:
            return Value::Bool(l.str() > r.str());
          case BinaryOp::kGe:
            return Value::Bool(l.str() >= r.str());
          case BinaryOp::kAdd:
            return Value(l.str() + r.str());
          default:
            return Status::InvalidArgument(
                "tql: unsupported operator on strings");
        }
      }
      if (l.is_null() || r.is_null()) {
        // SQL-ish null semantics: comparisons with null are false, `=`
        // against null matches only null.
        if (expr.bop == BinaryOp::kEq) {
          return Value::Bool(l.is_null() && r.is_null());
        }
        if (expr.bop == BinaryOp::kNe) {
          return Value::Bool(l.is_null() != r.is_null());
        }
        return Value::Null();
      }
      DL_ASSIGN_OR_RETURN(NdArray la, AsArray(l, ctx, "binary op"));
      DL_ASSIGN_OR_RETURN(NdArray ra, AsArray(r, ctx, "binary op"));
      double (*op)(double, double) = nullptr;
      switch (expr.bop) {
        case BinaryOp::kAdd:
          op = OpAdd;
          break;
        case BinaryOp::kSub:
          op = OpSub;
          break;
        case BinaryOp::kMul:
          op = OpMul;
          break;
        case BinaryOp::kDiv:
          op = OpDiv;
          break;
        case BinaryOp::kMod:
          op = OpMod;
          break;
        case BinaryOp::kEq:
          op = OpEq;
          break;
        case BinaryOp::kNe:
          op = OpNe;
          break;
        case BinaryOp::kLt:
          op = OpLt;
          break;
        case BinaryOp::kLe:
          op = OpLe;
          break;
        case BinaryOp::kGt:
          op = OpGt;
          break;
        case BinaryOp::kGe:
          op = OpGe;
          break;
        default:
          return Status::InvalidArgument("tql: bad binary operator");
      }
      DL_ASSIGN_OR_RETURN(
          NdArray out, ElementwiseBinary(la, ra, op, "binary"));
      // Whole-array comparisons used as predicates collapse to ALL(...)
      // for equality-style checks when both sides are arrays of equal
      // shape; scalar results stay as-is. We keep elementwise results and
      // let Truthy() (ANY) decide in boolean contexts.
      return Value(std::move(out));
    }
    case Expr::Kind::kIndex: {
      DL_ASSIGN_OR_RETURN(Value base, Evaluate(*expr.lhs, ctx));
      DL_ASSIGN_OR_RETURN(NdArray arr, AsArray(base, ctx, "indexing"));
      std::vector<SliceSpec> specs;
      specs.reserve(expr.slices.size());
      for (const auto& se : expr.slices) {
        SliceSpec spec;
        if (se.is_index) {
          DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.index, ctx));
          DL_ASSIGN_OR_RETURN(spec.index, AsIndex(v, "index"));
          spec.is_index = true;
        } else {
          if (se.start) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.start, ctx));
            DL_ASSIGN_OR_RETURN(spec.start, AsIndex(v, "slice start"));
            spec.has_start = true;
          }
          if (se.stop) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.stop, ctx));
            DL_ASSIGN_OR_RETURN(spec.stop, AsIndex(v, "slice stop"));
            spec.has_stop = true;
          }
          if (se.step) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.step, ctx));
            DL_ASSIGN_OR_RETURN(spec.step, AsIndex(v, "slice step"));
            spec.has_step = true;
          }
        }
        specs.push_back(spec);
      }
      DL_ASSIGN_OR_RETURN(NdArray out, SliceArray(arr, specs));
      return Value(std::move(out));
    }
    case Expr::Kind::kCall: {
      const std::string& fn = expr.text;
      // SHAPE of a column is served by the shape encoder — no chunk read,
      // so its argument is not evaluated.
      if (fn == "SHAPE" && expr.args.size() == 1 &&
          expr.args[0]->kind == Expr::Kind::kColumn) {
        DL_ASSIGN_OR_RETURN(tsf::TensorShape sh,
                            ctx.ColumnShape(expr.args[0]->text));
        return DimsValue(sh.dims());
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(*a, ctx));
        args.push_back(std::move(v));
      }
      auto need = [&](size_t n) -> Status {
        if (args.size() != n) {
          return Status::InvalidArgument("tql: " + fn + " expects " +
                                         std::to_string(n) + " argument(s)");
        }
        return Status::OK();
      };
      if (fn == "MEAN" || fn == "SUM" || fn == "MIN" || fn == "MAX" ||
          fn == "STD" || fn == "L2" || fn == "ANY" || fn == "ALL") {
        DL_RETURN_IF_ERROR(need(1));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, fn.c_str()));
        if (fn == "MEAN") return Value::Number(ReduceMean(a));
        if (fn == "SUM") return Value::Number(ReduceSum(a));
        if (fn == "MIN") return Value::Number(ReduceMin(a));
        if (fn == "MAX") return Value::Number(ReduceMax(a));
        if (fn == "STD") return Value::Number(ReduceStd(a));
        if (fn == "L2") return Value::Number(ReduceL2(a));
        if (fn == "ANY") return Value::Bool(ReduceAny(a));
        return Value::Bool(ReduceAll(a));
      }
      if (fn == "ABS") {
        DL_RETURN_IF_ERROR(need(1));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "ABS"));
        for (double& d : a.data()) d = std::fabs(d);
        return Value(std::move(a));
      }
      if (fn == "CLIP") {
        DL_RETURN_IF_ERROR(need(3));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "CLIP"));
        DL_ASSIGN_OR_RETURN(int64_t lo, AsIndex(args[1], "CLIP lo"));
        DL_ASSIGN_OR_RETURN(int64_t hi, AsIndex(args[2], "CLIP hi"));
        for (double& d : a.data()) {
          d = std::min(std::max(d, static_cast<double>(lo)),
                       static_cast<double>(hi));
        }
        return Value(std::move(a));
      }
      if (fn == "SHAPE") {
        DL_RETURN_IF_ERROR(need(1));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "SHAPE"));
        return DimsValue(a.shape());
      }
      if (fn == "LEN" || fn == "LENGTH") {
        DL_RETURN_IF_ERROR(need(1));
        if (args[0].is_string()) {
          return Value::Number(static_cast<double>(args[0].str().size()));
        }
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "LEN"));
        return Value::Number(
            a.ndim() == 0 ? 1.0 : static_cast<double>(a.shape()[0]));
      }
      if (fn == "IOU") {
        DL_RETURN_IF_ERROR(need(2));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "IOU"));
        DL_ASSIGN_OR_RETURN(NdArray b, AsArray(args[1], ctx, "IOU"));
        DL_ASSIGN_OR_RETURN(double iou, MeanBestIou(a, b));
        return Value::Number(iou);
      }
      if (fn == "NORMALIZE") {
        DL_RETURN_IF_ERROR(need(2));
        DL_ASSIGN_OR_RETURN(NdArray boxes, AsArray(args[0], ctx, "NORMALIZE"));
        DL_ASSIGN_OR_RETURN(NdArray win, AsArray(args[1], ctx, "NORMALIZE"));
        DL_ASSIGN_OR_RETURN(NdArray out, NormalizeBoxes(boxes, win));
        return Value(std::move(out));
      }
      if (fn == "CONTAINS") {
        DL_RETURN_IF_ERROR(need(2));
        if (!args[0].is_string() || !args[1].is_string()) {
          return Status::InvalidArgument("tql: CONTAINS expects strings");
        }
        return Value::Bool(args[0].str().find(args[1].str()) !=
                           std::string::npos);
      }
      if (fn == "LOWER" || fn == "UPPER") {
        DL_RETURN_IF_ERROR(need(1));
        if (!args[0].is_string()) {
          return Status::InvalidArgument("tql: " + fn + " expects a string");
        }
        return Value(fn == "LOWER" ? ToLower(args[0].str())
                                   : ToUpper(args[0].str()));
      }
      if (fn == "ROW_NUMBER") {
        return Value::Number(static_cast<double>(ctx.row()));
      }
      return Status::NotImplemented("tql: unknown function " + fn);
    }
  }
  return Status::InvalidArgument("tql: bad expression node");
}

}  // namespace dl::tql::reference
