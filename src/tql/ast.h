#ifndef DEEPLAKE_TQL_AST_H_
#define DEEPLAKE_TQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "tql/value.h"

namespace dl::tql {

/// Expression AST. The parsed tree *is* the query's computational graph of
/// tensor operations (paper §4.4); the executor walks it per sample.
struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp { kNeg, kNot };

struct Expr {
  enum class Kind {
    kNumber,     // literal
    kString,     // literal (also used as tensor reference in functions)
    kColumn,     // tensor reference, possibly "group/name"
    kStarAll,    // SELECT *
    kBinary,
    kUnary,
    kCall,       // FUNC(args...)
    kIndex,      // base[slices...]
    kArray,      // [e, e, ...] literal
  };

  Kind kind;
  double number = 0;
  std::string text;  // string literal / column name / function name
  BinaryOp bop = BinaryOp::kAdd;
  UnaryOp uop = UnaryOp::kNeg;
  ExprPtr lhs, rhs;           // binary / unary(base in lhs) / index base
  std::vector<ExprPtr> args;  // call args / array elements

  /// Slice specs for kIndex: each entry is either an expression index or a
  /// start:stop:step with optional expression parts.
  struct SliceExpr {
    bool is_index = false;
    ExprPtr index;                  // for is_index
    ExprPtr start, stop, step;      // any may be null
  };
  std::vector<SliceExpr> slices;
  /// Nodes on the longest path from here to a leaf; the parser sets it and
  /// bounds it (ParseQuery).
  int height = 1;

  static ExprPtr Number_(double v) {
    auto e = std::make_shared<Expr>();
    e->kind = Kind::kNumber;
    e->number = v;
    return e;
  }
  static ExprPtr String_(std::string s) {
    auto e = std::make_shared<Expr>();
    e->kind = Kind::kString;
    e->text = std::move(s);
    return e;
  }
  static ExprPtr Column(std::string name) {
    auto e = std::make_shared<Expr>();
    e->kind = Kind::kColumn;
    e->text = std::move(name);
    return e;
  }
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
    auto e = std::make_shared<Expr>();
    e->kind = Kind::kBinary;
    e->bop = op;
    e->lhs = std::move(l);
    e->rhs = std::move(r);
    return e;
  }
  static ExprPtr Unary(UnaryOp op, ExprPtr base) {
    auto e = std::make_shared<Expr>();
    e->kind = Kind::kUnary;
    e->uop = op;
    e->lhs = std::move(base);
    return e;
  }
};

/// One SELECT item: expression + output name.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // derived from the expression when not given
};

/// JOIN clause (paper §7.3 future work, implemented here):
///   FROM a JOIN b ON a.key = b.key
struct JoinClause {
  std::string dataset;  // name resolved through QueryOptions::datasets
  std::string alias;    // defaults to the dataset name
  ExprPtr on;
};

/// EXPLAIN prefix on a query (DESIGN.md §7). `kPlan` renders the operator
/// pipeline without touching any row; `kAnalyze` executes the query and
/// reports per-operator rows/wall-time/bytes in place of the result rows.
enum class ExplainMode { kNone, kPlan, kAnalyze };

/// A parsed TQL query (paper Fig. 5 grammar).
struct Query {
  ExplainMode explain = ExplainMode::kNone;
  std::vector<SelectItem> select;  // empty or single kStarAll = all tensors
  std::string from;                // dataset identifier (informational)
  std::string from_alias;          // alias for qualified column refs
  std::vector<JoinClause> joins;
  std::string version;             // optional: FROM ds VERSION 'commit'
  ExprPtr where;                   // optional
  std::vector<ExprPtr> group_by;   // optional
  ExprPtr order_by;                // optional
  bool order_desc = false;
  ExprPtr arrange_by;              // optional (Deep Lake extension)
  int64_t limit = -1;              // -1 = none
  int64_t offset = 0;

  bool SelectsAll() const {
    return select.empty() ||
           (select.size() == 1 &&
            select[0].expr->kind == Expr::Kind::kStarAll);
  }
};

/// Renders an expression back to TQL-ish text — used for EXPLAIN operator
/// detail strings ("filter (MEAN(images) > 0.5)"). Round-trip fidelity is
/// not a goal; readability is.
std::string ExprToString(const Expr& expr);

}  // namespace dl::tql

#endif  // DEEPLAKE_TQL_AST_H_
