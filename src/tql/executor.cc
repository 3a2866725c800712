#include "tql/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tql/parser.h"
#include "util/clock.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::tql {

namespace {

double OpAdd(double a, double b) { return a + b; }
double OpSub(double a, double b) { return a - b; }
double OpMul(double a, double b) { return a * b; }
double OpDiv(double a, double b) { return b != 0 ? a / b : 0.0; }
double OpMod(double a, double b) {
  return b != 0 ? std::fmod(a, b) : 0.0;
}
bool OpEq(double a, double b) { return a == b; }
bool OpNe(double a, double b) { return a != b; }
bool OpLt(double a, double b) { return a < b; }
bool OpLe(double a, double b) { return a <= b; }
bool OpGt(double a, double b) { return a > b; }
bool OpGe(double a, double b) { return a >= b; }

/// Resolves a value that should be an array; string values are treated as
/// tensor references (the paper's IOU(boxes, "training/boxes") idiom).
/// Returns a view: the cell's bytes are shared, not copied.
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

bool IsKnownFunction(const std::string& fn) {
  static const char* kKnown[] = {
      "MEAN", "SUM",  "MIN",       "MAX",   "STD",   "L2",    "ANY",
      "ALL",  "ABS",  "CLIP",      "SHAPE", "LEN",   "LENGTH", "IOU",
      "NORMALIZE",    "CONTAINS",  "LOWER", "UPPER", "ROW_NUMBER", "COUNT"};
  for (const char* k : kKnown) {
    if (fn == k) return true;
  }
  return false;
}

/// Static semantic validation: unknown columns and functions fail at query
/// time, not lazily on first cell access. Columns resolve as in `scope`.
/// COUNT() counts a group's members, so it is legal only in an expression
/// evaluated on group rows. MEAN, SUM, MIN and MAX also reduce an array
/// within one row, so they are legal anywhere.
Status ValidateExpr(const Expr& expr, const EvalContext& scope,
                    bool group_rows) {
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      if (!scope.HasColumn(expr.text)) {
        return Status::NotFound("tql: no tensor '" + expr.text + "'");
      }
      return Status::OK();
    case Expr::Kind::kCall:
      if (!IsKnownFunction(expr.text)) {
        return Status::NotImplemented("tql: unknown function " + expr.text);
      }
      if (expr.text == "COUNT" && !group_rows) {
        return Status::InvalidArgument(
            "tql: COUNT() counts group members and needs GROUP BY");
      }
      break;
    default:
      break;
  }
  auto validate = [&](const ExprPtr& e) {
    return e ? ValidateExpr(*e, scope, group_rows) : Status::OK();
  };
  DL_RETURN_IF_ERROR(validate(expr.lhs));
  DL_RETURN_IF_ERROR(validate(expr.rhs));
  for (const auto& a : expr.args) DL_RETURN_IF_ERROR(validate(a));
  for (const auto& s : expr.slices) {
    DL_RETURN_IF_ERROR(validate(s.index));
    DL_RETURN_IF_ERROR(validate(s.start));
    DL_RETURN_IF_ERROR(validate(s.stop));
    DL_RETURN_IF_ERROR(validate(s.step));
  }
  return Status::OK();
}

}  // namespace

Result<Value> EvalContext::Column(const std::string& name) {
  auto it = cache_.find(name);
  if (it != cache_.end()) {
    if (io_ != nullptr) ++io_->cache_hits;
    return it->second;
  }
  std::string tensor;
  const Binding* binding = Bound(name, &tensor);
  DL_ASSIGN_OR_RETURN(Value v, binding != nullptr
                                   ? Load(binding->first, binding->second,
                                          tensor)
                                   : Load(dataset_, row_, name));
  cache_[name] = v;
  return v;
}

Result<tsf::TensorShape> EvalContext::ColumnShape(
    const std::string& name) const {
  std::string tensor;
  const Binding* binding = Bound(name, &tensor);
  DL_ASSIGN_OR_RETURN(tsf::Tensor * t,
                      binding != nullptr ? binding->first->GetTensor(tensor)
                                         : dataset_->GetTensor(name));
  return t->ShapeAt(binding != nullptr ? binding->second : row_);
}

bool EvalContext::HasColumn(const std::string& name) const {
  std::string tensor;
  const Binding* binding = Bound(name, &tensor);
  return binding != nullptr ? binding->first->HasTensor(tensor)
                            : dataset_->HasTensor(name);
}

const EvalContext::Binding* EvalContext::Bound(const std::string& name,
                                               std::string* tensor) const {
  size_t slash = name.find('/');
  if (slash == std::string::npos) return nullptr;
  auto binding = bindings_.find(name.substr(0, slash));
  if (binding == bindings_.end()) return nullptr;
  *tensor = name.substr(slash + 1);
  return &binding->second;
}

Result<Value> EvalContext::Load(tsf::Dataset* dataset, uint64_t row,
                                const std::string& name) {
  DL_ASSIGN_OR_RETURN(tsf::Tensor * tensor, dataset->GetTensor(name));
  if (row >= tensor->NumSamples()) {
    return Value::Null();
  }
  DL_ASSIGN_OR_RETURN(tsf::Sample s, tensor->Read(row));
  if (io_ != nullptr) io_->bytes_loaded += s.data.size();
  if (s.shape.IsEmptySample() && s.data.empty() && s.shape.ndim() > 0) {
    return Value::Null();
  }
  if (tensor->meta().htype.kind == tsf::HtypeKind::kText ||
      tensor->meta().htype.is_link) {
    return Value(s.AsString());
  }
  // The value is a view over the decoded sample in its stored dtype, so
  // its bytes must cover the shape.
  DL_RETURN_IF_ERROR(s.Validate());
  return Value(NdArray::FromSample(s));
}

namespace {

// Evaluate recurses once per level of the expression tree, which the
// parser bounds (ParseQuery). Each kind of node is evaluated out of line, so
// a recursive frame holds only the locals of the kinds on the path, and a
// logical chain (p OR q OR ...) recurses through the smallest frames.

[[gnu::noinline]] Result<Value> EvalArrayLiteral(const Expr& expr,
                                                 EvalContext& ctx) {
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

[[gnu::noinline]] Result<Value> EvalUnary(const Expr& expr, EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value v, Evaluate(*expr.lhs, ctx));
  if (expr.uop == UnaryOp::kNot) {
    return Value::Bool(!v.Truthy());
  }
  DL_ASSIGN_OR_RETURN(NdArray arr, AsArray(v, ctx, "unary -"));
  return Value(MapToFloat64(arr, [](double d) { return -d; }));
}

/// AND and OR short-circuit on truthiness.
[[gnu::noinline]] Result<Value> EvalLogical(const Expr& expr,
                                            EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
  bool lt = l.Truthy();
  if (expr.bop == BinaryOp::kAnd && !lt) return Value::Bool(false);
  if (expr.bop == BinaryOp::kOr && lt) return Value::Bool(true);
  DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
  return Value::Bool(r.Truthy());
}

/// l `op` r for an arithmetic or comparison operator.
[[gnu::noinline]] Result<Value> ApplyBinary(BinaryOp bop, const Value& l,
                                            const Value& r, EvalContext& ctx) {
  // String comparisons.
  if (l.is_string() && r.is_string()) {
    switch (bop) {
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
    if (bop == BinaryOp::kEq) {
      return Value::Bool(l.is_null() && r.is_null());
    }
    if (bop == BinaryOp::kNe) {
      return Value::Bool(l.is_null() != r.is_null());
    }
    return Value::Null();
  }
  DL_ASSIGN_OR_RETURN(NdArray la, AsArray(l, ctx, "binary op"));
  DL_ASSIGN_OR_RETURN(NdArray ra, AsArray(r, ctx, "binary op"));
  // Comparisons read both sides in their stored dtypes into a bool
  // array; arithmetic produces float64. Elementwise results stay
  // arrays, and Truthy() (ANY) decides them in boolean contexts.
  bool (*cmp)(double, double) = nullptr;
  double (*op)(double, double) = nullptr;
  switch (bop) {
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
      cmp = OpEq;
      break;
    case BinaryOp::kNe:
      cmp = OpNe;
      break;
    case BinaryOp::kLt:
      cmp = OpLt;
      break;
    case BinaryOp::kLe:
      cmp = OpLe;
      break;
    case BinaryOp::kGt:
      cmp = OpGt;
      break;
    case BinaryOp::kGe:
      cmp = OpGe;
      break;
    default:
      return Status::InvalidArgument("tql: bad binary operator");
  }
  DL_ASSIGN_OR_RETURN(NdArray out,
                      cmp != nullptr
                          ? CompareBinary(la, ra, cmp, "binary")
                          : ElementwiseBinary(la, ra, op, "binary"));
  return Value(std::move(out));
}

[[gnu::noinline]] Result<Value> EvalBinary(const Expr& expr, EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
  DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
  return ApplyBinary(expr.bop, l, r, ctx);
}

/// base[specs of `expr`].
[[gnu::noinline]] Result<Value> ApplyIndex(const Expr& expr, const Value& base,
                                           EvalContext& ctx) {
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

[[gnu::noinline]] Result<Value> EvalIndex(const Expr& expr, EvalContext& ctx) {
  DL_ASSIGN_OR_RETURN(Value base, Evaluate(*expr.lhs, ctx));
  return ApplyIndex(expr, base, ctx);
}

/// The function `expr` names, over its evaluated `args`.
[[gnu::noinline]] Result<Value> ApplyCall(const Expr& expr,
                                          const std::vector<Value>& args,
                                          EvalContext& ctx) {
  const std::string& fn = expr.text;
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
    return Value(MapToFloat64(a, [](double d) { return std::fabs(d); }));
  }
  if (fn == "CLIP") {
    DL_RETURN_IF_ERROR(need(3));
    DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "CLIP"));
    DL_ASSIGN_OR_RETURN(int64_t lo, AsIndex(args[1], "CLIP lo"));
    DL_ASSIGN_OR_RETURN(int64_t hi, AsIndex(args[2], "CLIP hi"));
    return Value(MapToFloat64(a, [lo, hi](double d) {
      return std::min(std::max(d, static_cast<double>(lo)),
                      static_cast<double>(hi));
    }));
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

[[gnu::noinline]] Result<Value> EvalCall(const Expr& expr, EvalContext& ctx) {
  // SHAPE of a column is served by the shape encoder — no chunk read,
  // so its argument is not evaluated.
  if (expr.text == "SHAPE" && expr.args.size() == 1 &&
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
  return ApplyCall(expr, args, ctx);
}

}  // namespace

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
    case Expr::Kind::kArray:
      return EvalArrayLiteral(expr, ctx);
    case Expr::Kind::kUnary:
      return EvalUnary(expr, ctx);
    case Expr::Kind::kBinary:
      return expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr
                 ? EvalLogical(expr, ctx)
                 : EvalBinary(expr, ctx);
    case Expr::Kind::kIndex:
      return EvalIndex(expr, ctx);
    case Expr::Kind::kCall:
      return EvalCall(expr, ctx);
  }
  return Status::InvalidArgument("tql: bad expression node");
}

// ---------------------------------------------------------------------------
// DatasetView
// ---------------------------------------------------------------------------

DatasetView::DatasetView(std::shared_ptr<tsf::Dataset> dataset,
                         std::vector<uint64_t> indices,
                         std::vector<SelectItem> select, bool selects_all)
    : dataset_(std::move(dataset)),
      indices_(std::move(indices)),
      select_(std::move(select)),
      selects_all_(selects_all) {
  if (selects_all_) {
    columns_ = dataset_->TensorNames();
  } else {
    for (const auto& item : select_) columns_.push_back(item.alias);
  }
}

DatasetView::DatasetView(std::vector<std::string> columns,
                         std::vector<std::vector<Value>> rows)
    : computed_(true), columns_(std::move(columns)), rows_(std::move(rows)) {}

const SelectItem* DatasetView::FindItem(const std::string& column) const {
  for (const auto& item : select_) {
    if (item.alias == column) return &item;
  }
  return nullptr;
}

Result<Value> DatasetView::Cell(size_t view_row, const std::string& column) {
  if (view_row >= size()) {
    return Status::OutOfRange("view: row " + std::to_string(view_row) +
                              " beyond " + std::to_string(size()));
  }
  if (computed_) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c] == column) return rows_[view_row][c];
    }
    return Status::NotFound("view: no column '" + column + "'");
  }
  EvalContext ctx(dataset_.get(), indices_[view_row]);
  if (selects_all_) {
    return ctx.Column(column);
  }
  const SelectItem* item = FindItem(column);
  if (item == nullptr) {
    return Status::NotFound("view: no column '" + column + "'");
  }
  return Evaluate(*item->expr, ctx);
}

Result<tsf::Sample> DatasetView::CellSample(size_t view_row,
                                            const std::string& column) {
  if (computed_) {
    DL_ASSIGN_OR_RETURN(Value v, Cell(view_row, column));
    if (v.is_string()) return tsf::Sample::FromString(v.str());
    if (v.is_null()) return tsf::Sample::EmptyOf(tsf::DType::kFloat64);
    return v.array().ToSample(tsf::DType::kFloat64);
  }
  if (view_row >= size()) {
    return Status::OutOfRange("view: row beyond end");
  }
  uint64_t row = indices_[view_row];
  // Passthrough fast path: plain column reference keeps the source bytes.
  std::string source_tensor;
  const Expr* expr = nullptr;
  if (selects_all_) {
    source_tensor = column;
  } else {
    const SelectItem* item = FindItem(column);
    if (item == nullptr) {
      return Status::NotFound("view: no column '" + column + "'");
    }
    if (item->expr->kind == Expr::Kind::kColumn) {
      source_tensor = item->expr->text;
    } else {
      expr = item->expr.get();
    }
  }
  if (!source_tensor.empty()) {
    DL_ASSIGN_OR_RETURN(tsf::Tensor * t, dataset_->GetTensor(source_tensor));
    if (row >= t->NumSamples()) {
      return tsf::Sample::EmptyOf(t->meta().dtype);
    }
    return t->Read(row);
  }
  EvalContext ctx(dataset_.get(), row);
  DL_ASSIGN_OR_RETURN(Value v, Evaluate(*expr, ctx));
  if (v.is_string()) return tsf::Sample::FromString(v.str());
  if (v.is_null()) return tsf::Sample::EmptyOf(tsf::DType::kFloat64);
  // Preserve the source dtype when the root of the expression is an
  // index/slice of a plain column; otherwise fall back to float64.
  tsf::DType dtype = tsf::DType::kFloat64;
  const Expr* root = expr;
  while (root->kind == Expr::Kind::kIndex) root = root->lhs.get();
  if (root->kind == Expr::Kind::kColumn && expr->kind == Expr::Kind::kIndex) {
    auto t = dataset_->GetTensor(root->text);
    if (t.ok()) dtype = (*t)->meta().dtype;
  }
  return v.array().ToSample(dtype);
}

bool DatasetView::IsSparseOver(uint64_t dataset_rows) const {
  if (computed_) return false;
  if (indices_.size() != dataset_rows) return true;
  for (size_t i = 0; i < indices_.size(); ++i) {
    if (indices_[i] != i) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// QueryProfile
// ---------------------------------------------------------------------------

std::string QueryProfile::ToTreeString() const {
  std::string out = analyzed ? "EXPLAIN ANALYZE" : "EXPLAIN";
  if (analyzed) {
    out += " (total " + std::to_string(total_us) + " us, parse " +
           std::to_string(parse_us) + " us)";
  }
  out += "\n";
  for (const auto& op : operators) {
    out += "-> " + op.op;
    if (!op.detail.empty()) out += " (" + op.detail + ")";
    if (analyzed) {
      out += " [rows " + std::to_string(op.rows_in) + " -> " +
             std::to_string(op.rows_out) + ", wall " +
             std::to_string(op.wall_us) + " us";
      if (op.bytes_read > 0) {
        out += ", bytes " + std::to_string(op.bytes_read);
      }
      if (op.cache_hits > 0) {
        out += ", cache_hits " + std::to_string(op.cache_hits);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

Json QueryProfile::ToJson() const {
  Json ops = Json::MakeArray();
  for (const auto& op : operators) {
    Json item = Json::MakeObject();
    item.Set("op", op.op);
    item.Set("detail", op.detail);
    item.Set("rows_in", op.rows_in);
    item.Set("rows_out", op.rows_out);
    item.Set("wall_us", op.wall_us);
    item.Set("bytes_read", op.bytes_read);
    item.Set("cache_hits", op.cache_hits);
    ops.Append(std::move(item));
  }
  Json doc = Json::MakeObject();
  doc.Set("query", query);
  doc.Set("analyzed", analyzed);
  doc.Set("parse_us", parse_us);
  doc.Set("total_us", total_us);
  doc.Set("operators", std::move(ops));
  return doc;
}

int64_t QueryProfile::OperatorWallSumUs() const {
  int64_t sum = parse_us;
  for (const auto& op : operators) sum += op.wall_us;
  return sum;
}

// ---------------------------------------------------------------------------
// Query execution: one operator pipeline
// ---------------------------------------------------------------------------

namespace {

bool IsAggregateCall(const Expr& e) {
  if (e.kind != Expr::Kind::kCall) return false;
  return e.text == "COUNT" || e.text == "SUM" || e.text == "MEAN" ||
         e.text == "MIN" || e.text == "MAX";
}

/// A query's operator list, built once from the parsed `Query`:
///   version → plan → scan|join → filter → group_by → sort → arrange →
///   limit → project.
/// EXPLAIN renders the list; execution and EXPLAIN ANALYZE run it. Every
/// operator works on one list of row ids and evaluates expressions through
/// Eval(): an id names a dataset row in a scan, a matched (left, right)
/// pair after `join`, and a group after `group_by`.
class Pipeline {
 public:
  /// Binds the datasets the query reads — the FROM dataset (pinned by
  /// VERSION, which is resolved and timed here) and the JOIN dataset — and
  /// lists the operators. Nothing is validated or read yet.
  static Result<Pipeline> Build(std::shared_ptr<tsf::Dataset> dataset,
                                const Query& query,
                                const QueryOptions& options);

  /// The operator list with names and details only (plain EXPLAIN).
  std::vector<OperatorProfile> Describe() const;

  /// Runs every operator in order over the FROM dataset's rows; fills
  /// `prof` (when set) with one measured entry per operator.
  Result<DatasetView> Run(QueryProfile* prof);

 private:
  using Step = Status (Pipeline::*)(EvalContext::IoStats* io);
  struct Operator {
    OperatorProfile profile;  // name and detail; `version` also its timing
    Step run = nullptr;       // null: done while the list was built
  };

  explicit Pipeline(const Query& query) : query_(&query) {}

  void Add(const char* op, std::string detail, Step run) {
    ops_.push_back({{op, std::move(detail)}, run});
  }
  /// JOIN and GROUP BY results are computed rows; a scan stays a lazy
  /// row-backed view.
  bool Computed() const {
    return right_ != nullptr || !query_->group_by.empty();
  }
  uint64_t size() const { return view_ ? view_->size() : rows_.size(); }

  /// Context for the FROM row `left`, with the JOIN aliases bound to
  /// (left, right) when the query joins.
  EvalContext Context(uint64_t left, uint64_t right,
                      EvalContext::IoStats* io) const {
    EvalContext ctx(from_.get(), left, io);
    if (right_ != nullptr) {
      ctx.Bind(query_->from_alias, from_.get(), left);
      ctx.Bind(query_->joins[0].alias, right_.get(), right);
    }
    return ctx;
  }
  /// `expr` on a scan row or join pair.
  Result<Value> EvalMember(const Expr& expr, uint64_t id,
                           EvalContext::IoStats* io) const {
    EvalContext ctx = right_ == nullptr
                          ? Context(id, 0, io)
                          : Context(pairs_[id].first, pairs_[id].second, io);
    return Evaluate(expr, ctx);
  }
  /// `expr` on row `id`. On a group row, an aggregate call reduces over
  /// the group's members and any other expression reads the first member.
  Result<Value> Eval(const Expr& expr, uint64_t id,
                     EvalContext::IoStats* io) const;

  Status Plan(EvalContext::IoStats* io);
  Status Scan(EvalContext::IoStats* io);
  Status Join(EvalContext::IoStats* io);
  Status Filter(EvalContext::IoStats* io);
  Status GroupBy(EvalContext::IoStats* io);
  Status Sort(EvalContext::IoStats* io);
  Status Arrange(EvalContext::IoStats* io);
  Status Limit(EvalContext::IoStats* io);
  Status Project(EvalContext::IoStats* io);

  const Query* query_;
  std::shared_ptr<tsf::Dataset> from_, right_;
  std::vector<Operator> ops_;
  std::vector<uint64_t> rows_;
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;  // after join
  std::vector<std::vector<uint64_t>> groups_;         // after group_by
  std::optional<DatasetView> view_;  // set by project
};

Result<Pipeline> Pipeline::Build(std::shared_ptr<tsf::Dataset> dataset,
                                 const Query& query,
                                 const QueryOptions& options) {
  Pipeline p(query);
  auto named = options.datasets.find(query.from);
  p.from_ = named != options.datasets.end() ? named->second : dataset;
  if (!query.version.empty()) {
    if (!options.version_resolver) {
      return Status::NotImplemented(
          "tql: VERSION queries require a version resolver");
    }
    int64_t start = NowMicros();
    DL_ASSIGN_OR_RETURN(p.from_, options.version_resolver(query.version));
    p.Add("version", "'" + query.version + "'", nullptr);
    p.ops_.back().profile.rows_out = p.from_->NumRows();
    p.ops_.back().profile.wall_us = NowMicros() - start;
  }
  if (query.joins.size() > 1) {
    return Status::NotImplemented("tql: only a single JOIN is supported");
  }
  p.Add("plan", "validate expressions", &Pipeline::Plan);
  if (!query.joins.empty()) {
    const JoinClause& join = query.joins[0];
    auto right = options.datasets.find(join.dataset);
    if (right == options.datasets.end()) {
      return Status::NotFound("tql: JOIN dataset '" + join.dataset +
                              "' not registered in QueryOptions::datasets");
    }
    p.right_ = right->second;
    p.Add("join", join.dataset + " ON " + ExprToString(*join.on),
          &Pipeline::Join);
  } else if (!query.where) {
    std::string rows = std::to_string(p.from_->NumRows());
    p.Add("scan", "full scan of " + rows + " rows", &Pipeline::Scan);
  }
  if (query.where) {
    p.Add("filter", ExprToString(*query.where), &Pipeline::Filter);
  }
  if (!query.group_by.empty()) {
    std::string detail;
    for (const auto& g : query.group_by) {
      if (!detail.empty()) detail += ", ";
      detail += ExprToString(*g);
    }
    p.Add("group_by", std::move(detail), &Pipeline::GroupBy);
  }
  if (query.order_by) {
    p.Add("sort",
          ExprToString(*query.order_by) + (query.order_desc ? " DESC" : " ASC"),
          &Pipeline::Sort);
  }
  if (query.arrange_by) {
    p.Add("arrange", ExprToString(*query.arrange_by), &Pipeline::Arrange);
  }
  if (query.limit >= 0 || query.offset > 0) {
    std::string detail = query.limit >= 0
                             ? "limit " + std::to_string(query.limit)
                             : std::string("limit none");
    if (query.offset > 0) detail += " offset " + std::to_string(query.offset);
    p.Add("limit", std::move(detail), &Pipeline::Limit);
  }
  p.Add("project",
        query.SelectsAll()
            ? std::string("* (lazy)")
            : std::to_string(query.select.size()) + " column(s)" +
                  (p.Computed() ? " (computed)" : " (lazy)"),
        &Pipeline::Project);
  return p;
}

std::vector<OperatorProfile> Pipeline::Describe() const {
  std::vector<OperatorProfile> out;
  for (const Operator& o : ops_) {
    out.push_back({o.profile.op, o.profile.detail});
  }
  return out;
}

Result<DatasetView> Pipeline::Run(QueryProfile* prof) {
  uint64_t n = from_->NumRows();
  rows_.resize(n);
  std::iota(rows_.begin(), rows_.end(), uint64_t{0});
  for (const Operator& o : ops_) {
    OperatorProfile p = o.profile;
    if (o.run != nullptr) {
      EvalContext::IoStats io;
      p.rows_in = size();
      int64_t start = NowMicros();
      DL_RETURN_IF_ERROR((this->*o.run)(prof != nullptr ? &io : nullptr));
      p.rows_out = size();
      p.wall_us = NowMicros() - start;
      p.bytes_read = io.bytes_loaded;
      p.cache_hits = io.cache_hits;
    }
    if (prof != nullptr) prof->operators.push_back(std::move(p));
  }
  obs::MetricsRegistry::Global().GetCounter("tql.rows_scanned")->Add(n);
  return std::move(*view_);
}

Result<Value> Pipeline::Eval(const Expr& expr, uint64_t id,
                             EvalContext::IoStats* io) const {
  // No groups: before group_by, or a group_by of no rows (no ids left).
  if (groups_.empty()) return EvalMember(expr, id, io);
  const std::vector<uint64_t>& members = groups_[id];
  if (!IsAggregateCall(expr)) return EvalMember(expr, members.front(), io);
  if (expr.text == "COUNT") {
    return Value::Number(static_cast<double>(members.size()));
  }
  if (expr.args.size() != 1) {
    return Status::InvalidArgument("tql: " + expr.text +
                                   " expects one argument");
  }
  // Reduce the member values (each array by its mean) over the group.
  double acc = 0;
  double mn = HUGE_VAL, mx = -HUGE_VAL;
  for (uint64_t member : members) {
    DL_ASSIGN_OR_RETURN(Value v, EvalMember(*expr.args[0], member, io));
    double d = v.is_array() ? ReduceMean(v.array()) : 0.0;
    acc += d;
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  if (expr.text == "SUM") return Value::Number(acc);
  if (expr.text == "MEAN") return Value::Number(acc / members.size());
  return Value::Number(expr.text == "MIN" ? mn : mx);
}

/// Static validation of every expression in the query: all schema errors
/// surface here, before any row is touched. `alias.tensor` resolves
/// through the JOIN bindings, as it does when rows are evaluated.
Status Pipeline::Plan(EvalContext::IoStats* /*io*/) {
  obs::ScopedSpan span("tql.plan", "tql");
  int64_t start = NowMicros();
  if (Computed() && query_->SelectsAll()) {
    return Status::InvalidArgument(
        right_ != nullptr ? "tql: JOIN queries require an explicit select list"
                          : "tql: GROUP BY requires an explicit select list");
  }
  const EvalContext scope = Context(0, 0, nullptr);
  // The select list and the sort and arrange keys read group rows when
  // the query groups; JOIN ON, WHERE and the group keys read source rows.
  const bool grouped = !query_->group_by.empty();
  std::vector<std::pair<const Expr*, bool>> exprs;  // (expr, on group rows)
  if (!query_->SelectsAll()) {
    for (const auto& item : query_->select) {
      exprs.emplace_back(item.expr.get(), grouped);
    }
  }
  for (const auto& join : query_->joins) {
    exprs.emplace_back(join.on.get(), false);
  }
  for (const auto& g : query_->group_by) exprs.emplace_back(g.get(), false);
  exprs.emplace_back(query_->where.get(), false);
  exprs.emplace_back(query_->order_by.get(), grouped);
  exprs.emplace_back(query_->arrange_by.get(), grouped);
  for (const auto& [e, group_rows] : exprs) {
    if (e != nullptr) DL_RETURN_IF_ERROR(ValidateExpr(*e, scope, group_rows));
  }
  obs::MetricsRegistry::Global().GetHistogram("tql.plan_us")
      ->ObserveSinceMicros(start);
  return Status::OK();
}

/// Every FROM row passes: the pipeline starts with all of them.
Status Pipeline::Scan(EvalContext::IoStats* /*io*/) { return Status::OK(); }

/// Nested-loop inner join (paper §7.3's "does not support operations such
/// as *join*" future-work item): one pair per (left, right) rows where ON
/// holds. Unqualified names resolve against the FROM dataset.
Status Pipeline::Join(EvalContext::IoStats* io) {
  const Expr& on = *query_->joins[0].on;
  uint64_t n_right = right_->NumRows();
  for (uint64_t left : rows_) {
    for (uint64_t right = 0; right < n_right; ++right) {
      EvalContext ctx = Context(left, right, io);
      DL_ASSIGN_OR_RETURN(Value match, Evaluate(on, ctx));
      if (match.Truthy()) pairs_.emplace_back(left, right);
    }
  }
  rows_.resize(pairs_.size());
  std::iota(rows_.begin(), rows_.end(), uint64_t{0});
  return Status::OK();
}

Status Pipeline::Filter(EvalContext::IoStats* io) {
  size_t kept = 0;
  for (uint64_t id : rows_) {
    DL_ASSIGN_OR_RETURN(Value v, Eval(*query_->where, id, io));
    if (v.Truthy()) rows_[kept++] = id;
  }
  rows_.resize(kept);
  return Status::OK();
}

/// Total order on one group-key value: null first, then numbers
/// numerically (NaN after every other number), then strings
/// lexicographically, then non-scalar arrays by their rendering (so arrays
/// of one shape share a group). Returns <0, 0 or >0.
int CompareKey(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_array()) return v.array().IsScalar() ? 1 : 3;
    return 2;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 1: {
      double x = a.array().AsScalar(), y = b.array().AsScalar();
      if (std::isnan(x) || std::isnan(y)) {
        return static_cast<int>(std::isnan(x)) -
               static_cast<int>(std::isnan(y));
      }
      return x < y ? -1 : (y < x ? 1 : 0);
    }
    case 2:
      return a.str().compare(b.str());
    case 3:
      return a.ToString().compare(b.ToString());
    default:
      return 0;
  }
}

struct KeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = CompareKey(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// One row per distinct group key, in typed key order (CompareKey).
Status Pipeline::GroupBy(EvalContext::IoStats* io) {
  std::map<std::vector<Value>, std::vector<uint64_t>, KeyLess> groups;
  for (uint64_t id : rows_) {
    std::vector<Value> key;
    key.reserve(query_->group_by.size());
    for (const auto& g : query_->group_by) {
      DL_ASSIGN_OR_RETURN(Value v, Eval(*g, id, io));
      key.push_back(std::move(v));
    }
    groups[std::move(key)].push_back(id);
  }
  for (auto& [key, members] : groups) groups_.push_back(std::move(members));
  rows_.resize(groups_.size());
  std::iota(rows_.begin(), rows_.end(), uint64_t{0});
  return Status::OK();
}

Status Pipeline::Sort(EvalContext::IoStats* io) {
  std::vector<std::pair<double, uint64_t>> keyed;
  keyed.reserve(rows_.size());
  for (uint64_t id : rows_) {
    DL_ASSIGN_OR_RETURN(Value v, Eval(*query_->order_by, id, io));
    // The one numeric sort key: an array (a scalar too) by its mean;
    // strings and null sort as 0.
    keyed.emplace_back(v.is_array() ? ReduceMean(v.array()) : 0.0, id);
  }
  bool desc = query_->order_desc;
  std::stable_sort(keyed.begin(), keyed.end(),
                   [desc](const auto& a, const auto& b) {
                     return desc ? a.first > b.first : a.first < b.first;
                   });
  for (size_t i = 0; i < keyed.size(); ++i) rows_[i] = keyed[i].second;
  return Status::OK();
}

/// Balancing: bucket by key, then round-robin interleave so every key
/// appears evenly through the stream.
Status Pipeline::Arrange(EvalContext::IoStats* io) {
  std::map<std::string, std::vector<uint64_t>> buckets;
  std::vector<std::vector<uint64_t>*> bucket_order;
  for (uint64_t id : rows_) {
    DL_ASSIGN_OR_RETURN(Value v, Eval(*query_->arrange_by, id, io));
    std::vector<uint64_t>& bucket = buckets[v.ToString()];
    if (bucket.empty()) bucket_order.push_back(&bucket);
    bucket.push_back(id);
  }
  size_t out = 0;
  for (size_t round = 0; out < rows_.size(); ++round) {
    for (const std::vector<uint64_t>* bucket : bucket_order) {
      if (round < bucket->size()) rows_[out++] = (*bucket)[round];
    }
  }
  return Status::OK();
}

Status Pipeline::Limit(EvalContext::IoStats* /*io*/) {
  size_t off = std::min<size_t>(rows_.size(),
                                static_cast<size_t>(query_->offset));
  rows_.erase(rows_.begin(), rows_.begin() + off);
  if (query_->limit >= 0 && rows_.size() > static_cast<size_t>(query_->limit)) {
    rows_.resize(static_cast<size_t>(query_->limit));
  }
  return Status::OK();
}

Status Pipeline::Project(EvalContext::IoStats* io) {
  if (!Computed()) {
    view_.emplace(from_, std::move(rows_),
                  query_->SelectsAll() ? std::vector<SelectItem>{}
                                       : query_->select,
                  query_->SelectsAll());
    return Status::OK();
  }
  std::vector<std::string> columns;
  for (const auto& item : query_->select) columns.push_back(item.alias);
  std::vector<std::vector<Value>> out;
  out.reserve(rows_.size());
  for (uint64_t id : rows_) {
    std::vector<Value> cells;
    for (const auto& item : query_->select) {
      DL_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, id, io));
      cells.push_back(std::move(v));
    }
    out.push_back(std::move(cells));
  }
  view_.emplace(std::move(columns), std::move(out));
  return Status::OK();
}

/// Renders a profile as a computed single-column view — what EXPLAIN and
/// EXPLAIN ANALYZE return in place of result rows (one line per row).
DatasetView PlanTextView(const QueryProfile& profile) {
  std::vector<std::vector<Value>> out_rows;
  std::string text = profile.ToTreeString();
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out_rows.push_back({Value(text.substr(start, nl - start))});
    start = nl + 1;
  }
  return DatasetView(std::vector<std::string>{"plan"}, std::move(out_rows));
}

/// Shared execution wrapper: spans/metrics, optional profiling, EXPLAIN
/// rendering. `query_text`/`parse_us` are known only on the RunQuery path.
Result<DatasetView> ExecuteQueryTimed(std::shared_ptr<tsf::Dataset> dataset,
                                      const Query& query,
                                      const QueryOptions& options,
                                      const std::string& query_text,
                                      int64_t parse_us) {
  // The query adopts its job's trace context: tql.execute and everything
  // beneath it (scan, storage ops) share the context's trace id.
  obs::ContextScope context_scope(options.context);
  obs::ScopedSpan span("tql.execute", "tql");
  auto& registry = obs::MetricsRegistry::Global();
  int64_t start = NowMicros();

  std::shared_ptr<QueryProfile> profile;
  if (options.profile != nullptr || query.explain != ExplainMode::kNone) {
    profile = std::make_shared<QueryProfile>();
    profile->query = query_text;
    profile->analyzed = query.explain != ExplainMode::kPlan;
    profile->parse_us = parse_us;
  }

  Result<DatasetView> view = [&]() -> Result<DatasetView> {
    DL_ASSIGN_OR_RETURN(Pipeline pipeline,
                        Pipeline::Build(std::move(dataset), query, options));
    if (query.explain == ExplainMode::kPlan) {
      profile->operators = pipeline.Describe();
      // Placeholder — the rendered plan view is built below, after
      // total_us is known.
      return DatasetView(std::vector<std::string>{"plan"}, {});
    }
    return pipeline.Run(profile.get());
  }();

  registry.GetHistogram("tql.execute_us")->ObserveSinceMicros(start);
  if (view.ok()) {
    registry.GetCounter("tql.queries")->Increment();
    registry.GetCounter("tql.rows_selected")->Add(view->size());
  } else {
    registry.GetCounter("tql.errors")->Increment();
    obs::RecordErrorEvent(obs::TraceRecorder::Global(), "tql.execute",
                          view.status().ToString());
  }
  if (view.ok() && profile != nullptr) {
    profile->total_us = NowMicros() - start;
    if (options.profile != nullptr) *options.profile = *profile;
    if (query.explain != ExplainMode::kNone) {
      DatasetView plan_view = PlanTextView(*profile);
      plan_view.AttachProfile(profile);
      return plan_view;
    }
    view->AttachProfile(profile);
  }
  return view;
}

}  // namespace

Result<DatasetView> ExecuteQuery(std::shared_ptr<tsf::Dataset> dataset,
                                 const Query& query,
                                 const QueryOptions& options) {
  return ExecuteQueryTimed(std::move(dataset), query, options, "", 0);
}

Result<DatasetView> RunQuery(std::shared_ptr<tsf::Dataset> dataset,
                             const std::string& query_text,
                             const QueryOptions& options) {
  int64_t parse_start = NowMicros();
  Result<Query> parsed = [&] {
    obs::ContextScope context_scope(options.context);
    obs::ScopedSpan span("tql.parse", "tql");
    obs::ScopedTimerUs timer(
        obs::MetricsRegistry::Global().GetHistogram("tql.parse_us"));
    return ParseQuery(query_text);
  }();
  if (!parsed.ok()) return parsed.status();
  int64_t parse_us = NowMicros() - parse_start;
  return ExecuteQueryTimed(std::move(dataset), *parsed, options, query_text,
                           parse_us);
}

// ---------------------------------------------------------------------------
// Materialization (§4.5)
// ---------------------------------------------------------------------------

Result<std::shared_ptr<tsf::Dataset>> MaterializeView(
    DatasetView& view, storage::StoragePtr target) {
  obs::ScopedSpan span("tql.materialize", "tql");
  auto& registry = obs::MetricsRegistry::Global();
  obs::ScopedTimerUs timer(registry.GetHistogram("tql.materialize_us"));
  registry.GetCounter("tql.rows_materialized")->Add(view.size());
  tsf::Dataset::Options opts;
  opts.description = "materialized view";
  DL_ASSIGN_OR_RETURN(auto out, tsf::Dataset::Create(target, opts));
  // Declare output tensors: passthrough columns copy the source tensor's
  // options; computed columns become generic float64 / text tensors.
  for (const auto& column : view.columns()) {
    tsf::TensorOptions topts;
    bool configured = false;
    if (!view.computed() && view.dataset() != nullptr) {
      // Resolve the source tensor: the column itself for SELECT *, or the
      // root column of a plain/sliced column projection. Slices of a
      // tensor keep its dtype and compression; only whole-column
      // passthroughs keep the htype (a 2-channel crop is not an "image").
      std::string source;
      bool passthrough = false;
      if (view.selects_all()) {
        source = column;
        passthrough = true;
      } else {
        for (const auto& item : view.select_items()) {
          if (item.alias != column) continue;
          const Expr* root = item.expr.get();
          passthrough = root->kind == Expr::Kind::kColumn;
          while (root->kind == Expr::Kind::kIndex) root = root->lhs.get();
          if (root->kind == Expr::Kind::kColumn) source = root->text;
          break;
        }
      }
      if (!source.empty()) {
        auto src = view.dataset()->GetTensor(source);
        if (src.ok()) {
          topts.dtype = std::string(tsf::DTypeName((*src)->meta().dtype));
          topts.sample_compression = std::string(
              compress::CompressionName((*src)->meta().sample_compression));
          topts.chunk_compression = std::string(
              compress::CompressionName((*src)->meta().chunk_compression));
          topts.max_chunk_bytes = (*src)->meta().max_chunk_bytes;
          topts.htype =
              passthrough ? (*src)->meta().htype.ToString() : "generic";
          configured = true;
        }
      }
    }
    if (!configured) {
      topts.htype = "generic";
      topts.dtype = "float64";
    }
    DL_RETURN_IF_ERROR(out->CreateTensor(column, topts).status());
  }
  for (size_t i = 0; i < view.size(); ++i) {
    std::map<std::string, tsf::Sample> row;
    for (const auto& column : view.columns()) {
      DL_ASSIGN_OR_RETURN(tsf::Sample s, view.CellSample(i, column));
      // Computed string cells land as text; adapt dtype mismatches.
      auto tensor = out->GetTensor(column);
      if (tensor.ok() && s.dtype != (*tensor)->meta().dtype &&
          !s.shape.IsEmptySample()) {
        NdArray arr = NdArray::FromSample(s);
        s = arr.ToSample((*tensor)->meta().dtype);
      }
      row[column] = std::move(s);
    }
    DL_RETURN_IF_ERROR(out->Append(row));
  }
  DL_RETURN_IF_ERROR(out->Flush());
  out->LogProvenance("materialized from view of " +
                     std::to_string(view.size()) + " rows");
  return out;
}

}  // namespace dl::tql
