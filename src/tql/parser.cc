#include "tql/parser.h"

#include <algorithm>
#include <cstdint>

#include "tql/lexer.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::tql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query q;
    if (AcceptKeyword("EXPLAIN")) {
      q.explain = ExplainMode::kPlan;
      if (AcceptKeyword("ANALYZE")) q.explain = ExplainMode::kAnalyze;
    }
    DL_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    DL_RETURN_IF_ERROR(ParseSelectList(&q));
    if (AcceptKeyword("FROM")) {
      DL_ASSIGN_OR_RETURN(q.from, ParseDottedName());
      q.from_alias = q.from;
      if (AcceptKeyword("AS")) {
        if (Peek().kind != TokenKind::kIdent) {
          return Err("expected alias after AS");
        }
        q.from_alias = Peek().text;
        Advance();
      }
      while (AcceptKeyword("JOIN")) {
        JoinClause join;
        DL_ASSIGN_OR_RETURN(join.dataset, ParseDottedName());
        join.alias = join.dataset;
        if (AcceptKeyword("AS")) {
          if (Peek().kind != TokenKind::kIdent) {
            return Err("expected alias after AS");
          }
          join.alias = Peek().text;
          Advance();
        }
        DL_RETURN_IF_ERROR(ExpectKeyword("ON"));
        DL_ASSIGN_OR_RETURN(join.on, ParseExpr());
        q.joins.push_back(std::move(join));
      }
      if (AcceptKeyword("VERSION")) {
        if (Peek().kind != TokenKind::kString) {
          return Err("expected commit string after VERSION");
        }
        q.version = Peek().text;
        Advance();
      }
    }
    if (AcceptKeyword("WHERE")) {
      DL_ASSIGN_OR_RETURN(q.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      DL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        q.group_by.push_back(std::move(e));
      } while (Accept(TokenKind::kComma));
    }
    if (AcceptKeyword("ORDER")) {
      DL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      DL_ASSIGN_OR_RETURN(q.order_by, ParseExpr());
      if (AcceptKeyword("DESC")) {
        q.order_desc = true;
      } else {
        AcceptKeyword("ASC");
      }
    }
    if (AcceptKeyword("ARRANGE")) {
      DL_RETURN_IF_ERROR(ExpectKeyword("BY"));
      DL_ASSIGN_OR_RETURN(q.arrange_by, ParseExpr());
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumber) {
        return Err("expected number after LIMIT");
      }
      q.limit = static_cast<int64_t>(Peek().number);
      Advance();
      if (AcceptKeyword("OFFSET")) {
        if (Peek().kind != TokenKind::kNumber) {
          return Err("expected number after OFFSET");
        }
        q.offset = static_cast<int64_t>(Peek().number);
        Advance();
      }
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input");
    }
    return q;
  }

  Result<ExprPtr> ParseStandaloneExpr() {
    DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  // ---- token helpers ----

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }
  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      Advance();
      return true;
    }
    return false;
  }
  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    return TokenIsKeyword(Peek(ahead), kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument(
          std::string("tql: expected ") + kw + " at offset " +
          std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("tql: " + msg + " at offset " +
                                   std::to_string(Peek().offset));
  }

  static bool IsClauseKeyword(const std::string& upper) {
    return upper == "FROM" || upper == "WHERE" || upper == "GROUP" ||
           upper == "ORDER" || upper == "ARRANGE" || upper == "LIMIT" ||
           upper == "OFFSET" || upper == "AS" || upper == "ASC" ||
           upper == "DESC" || upper == "BY" || upper == "VERSION" ||
           upper == "JOIN" || upper == "ON" || upper == "EXPLAIN" ||
           upper == "ANALYZE";
  }

  // ---- grammar ----

  Status ParseSelectList(Query* q) {
    if (Accept(TokenKind::kStar)) {
      auto star = std::make_shared<Expr>();
      star->kind = Expr::Kind::kStarAll;
      q->select.push_back({star, "*"});
      return Status::OK();
    }
    do {
      SelectItem item;
      size_t expr_start = Peek().offset;
      DL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        if (Peek().kind != TokenKind::kIdent) {
          return Err("expected alias after AS").WithContext("select");
        }
        item.alias = Peek().text;
        Advance();
      } else if (item.expr->kind == Expr::Kind::kColumn) {
        item.alias = item.expr->text;
      } else {
        item.alias = "col" + std::to_string(q->select.size()) + "_" +
                     std::to_string(expr_start);
      }
      q->select.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));
    return Status::OK();
  }

  /// Dotted identifier -> "a/b/c" (grouped tensor path).
  Result<std::string> ParseDottedName() {
    if (Peek().kind != TokenKind::kIdent) {
      return Err("expected identifier");
    }
    std::string name = Peek().text;
    Advance();
    while (Peek().kind == TokenKind::kDot &&
           Peek(1).kind == TokenKind::kIdent) {
      Advance();
      name += "/";
      name += Peek().text;
      Advance();
    }
    return name;
  }

  // Every recursive descent passes through here: a parenthesis, bracket,
  // call argument or slice (each a fresh ParseExpr), NOT, and unary -/+.
  // The one counter bounds the parser's stack and the height of the tree
  // that ValidateExpr and Eval later recurse over.
  template <typename Fn>
  Result<ExprPtr> Nested(Fn&& parse) {
    if (++depth_ > kMaxDepth) return Err("expression nested too deeply");
    Result<ExprPtr> e = parse();
    --depth_;
    return e;
  }

  // Every node with operands passes through here. A left-deep chain
  // (a + b + c ..., a OR b OR ...) is parsed by a loop, not by recursion,
  // so Nested() does not see it, yet each operand adds a level that the
  // Expr destructor, ValidateExpr and Evaluate recurse over. The height
  // bound covers chains and nesting alike.
  Result<ExprPtr> Grown(ExprPtr e) {
    int below = 0;
    auto see = [&below](const ExprPtr& child) {
      if (child) below = std::max(below, child->height);
    };
    see(e->lhs);
    see(e->rhs);
    for (const auto& a : e->args) see(a);
    for (const auto& sl : e->slices) {
      see(sl.index);
      see(sl.start);
      see(sl.stop);
      see(sl.step);
    }
    e->height = below + 1;
    if (e->height > kMaxHeight) {
      return Err("expression tree taller than " + std::to_string(kMaxHeight) +
                 " levels");
    }
    return e;
  }

  // Precedence climbing: OR < AND < NOT < cmp < add < mul < unary < postfix.
  Result<ExprPtr> ParseExpr() { return Nested([&] { return ParseOr(); }); }

  Result<ExprPtr> ParseOr() {
    DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      DL_ASSIGN_OR_RETURN(lhs, Grown(Expr::Binary(BinaryOp::kOr, std::move(lhs),
                                                  std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      DL_ASSIGN_OR_RETURN(lhs, Grown(Expr::Binary(BinaryOp::kAnd,
                                                  std::move(lhs),
                                                  std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr base, Nested([&] { return ParseNot(); }));
      return Grown(Expr::Unary(UnaryOp::kNot, std::move(base)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Grown(Expr::Binary(op, std::move(lhs), std::move(rhs)));
  }

  Result<ExprPtr> ParseAdditive() {
    DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().kind == TokenKind::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      DL_ASSIGN_OR_RETURN(
          lhs, Grown(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Peek().kind == TokenKind::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().kind == TokenKind::kSlash) {
        op = BinaryOp::kDiv;
      } else if (Peek().kind == TokenKind::kPercent) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      DL_ASSIGN_OR_RETURN(
          lhs, Grown(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().kind == TokenKind::kMinus) {
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr base,
                          Nested([&] { return ParseUnary(); }));
      return Grown(Expr::Unary(UnaryOp::kNeg, std::move(base)));
    }
    if (Peek().kind == TokenKind::kPlus) {
      Advance();
      return Nested([&] { return ParseUnary(); });
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    DL_ASSIGN_OR_RETURN(ExprPtr base, ParsePrimary());
    while (Accept(TokenKind::kLBracket)) {
      auto idx = std::make_shared<Expr>();
      idx->kind = Expr::Kind::kIndex;
      idx->lhs = std::move(base);
      do {
        DL_ASSIGN_OR_RETURN(Expr::SliceExpr spec, ParseSliceSpec());
        idx->slices.push_back(std::move(spec));
      } while (Accept(TokenKind::kComma));
      if (!Accept(TokenKind::kRBracket)) {
        return Err("expected ']'");
      }
      DL_ASSIGN_OR_RETURN(base, Grown(std::move(idx)));
    }
    return base;
  }

  Result<Expr::SliceExpr> ParseSliceSpec() {
    Expr::SliceExpr spec;
    // Forms: expr | expr? ':' expr? (':' expr?)?
    bool have_start = false;
    ExprPtr first;
    if (Peek().kind != TokenKind::kColon) {
      DL_ASSIGN_OR_RETURN(first, ParseExpr());
      have_start = true;
    }
    if (!Accept(TokenKind::kColon)) {
      if (!have_start) return Err("expected slice or index");
      spec.is_index = true;
      spec.index = std::move(first);
      return spec;
    }
    spec.start = std::move(first);
    if (Peek().kind != TokenKind::kColon &&
        Peek().kind != TokenKind::kComma &&
        Peek().kind != TokenKind::kRBracket) {
      DL_ASSIGN_OR_RETURN(spec.stop, ParseExpr());
    }
    if (Accept(TokenKind::kColon)) {
      if (Peek().kind != TokenKind::kComma &&
          Peek().kind != TokenKind::kRBracket) {
        DL_ASSIGN_OR_RETURN(spec.step, ParseExpr());
      }
    }
    return spec;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        double v = t.number;
        Advance();
        return Expr::Number_(v);
      }
      case TokenKind::kString: {
        std::string s = t.text;
        Advance();
        return Expr::String_(std::move(s));
      }
      case TokenKind::kLParen: {
        Advance();
        DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        if (!Accept(TokenKind::kRParen)) return Err("expected ')'");
        return e;
      }
      case TokenKind::kLBracket: {
        // Array literal [e, e, ...].
        Advance();
        auto arr = std::make_shared<Expr>();
        arr->kind = Expr::Kind::kArray;
        if (!Accept(TokenKind::kRBracket)) {
          do {
            DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
            arr->args.push_back(std::move(e));
          } while (Accept(TokenKind::kComma));
          if (!Accept(TokenKind::kRBracket)) return Err("expected ']'");
        }
        return Grown(std::move(arr));
      }
      case TokenKind::kIdent: {
        std::string upper = ToUpper(t.text);
        if (IsClauseKeyword(upper)) {
          return Err("unexpected keyword '" + t.text + "'");
        }
        if (upper == "TRUE") {
          Advance();
          return Expr::Number_(1);
        }
        if (upper == "FALSE") {
          Advance();
          return Expr::Number_(0);
        }
        if (upper == "NULL") {
          Advance();
          auto e = std::make_shared<Expr>();
          e->kind = Expr::Kind::kString;  // evaluator maps "" via kNull? no:
          e->kind = Expr::Kind::kNumber;
          e->number = 0;
          return e;
        }
        // Function call or column reference.
        if (Peek(1).kind == TokenKind::kLParen) {
          auto call = std::make_shared<Expr>();
          call->kind = Expr::Kind::kCall;
          call->text = ToUpper(t.text);
          Advance();  // name
          Advance();  // (
          if (!Accept(TokenKind::kRParen)) {
            do {
              DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
              call->args.push_back(std::move(e));
            } while (Accept(TokenKind::kComma));
            if (!Accept(TokenKind::kRParen)) return Err("expected ')'");
          }
          return Grown(std::move(call));
        }
        DL_ASSIGN_OR_RETURN(std::string name, ParseDottedName());
        return Expr::Column(std::move(name));
      }
      default:
        return Err("expected expression");
    }
  }

  // Far above any hand-written query; 200 nested parentheses still parse.
  static constexpr int kMaxDepth = 256;
  // A 1,000-operand OR or + chain still parses; a generated query with a
  // million operands is an error, not a stack overflow in evaluation.
  static constexpr int kMaxHeight = 2048;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  DL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseQuery();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  DL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseStandaloneExpr();
}

namespace {

const char* BinaryOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

std::string NumberToString(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return std::to_string(v);
}

void AppendExpr(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      *out += NumberToString(e.number);
      return;
    case Expr::Kind::kString:
      *out += "'";
      *out += e.text;
      *out += "'";
      return;
    case Expr::Kind::kColumn:
      *out += e.text;
      return;
    case Expr::Kind::kStarAll:
      *out += "*";
      return;
    case Expr::Kind::kBinary:
      *out += "(";
      AppendExpr(*e.lhs, out);
      *out += " ";
      *out += BinaryOpText(e.bop);
      *out += " ";
      AppendExpr(*e.rhs, out);
      *out += ")";
      return;
    case Expr::Kind::kUnary:
      *out += e.uop == UnaryOp::kNot ? "NOT " : "-";
      AppendExpr(*e.lhs, out);
      return;
    case Expr::Kind::kCall: {
      *out += e.text;
      *out += "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) *out += ", ";
        AppendExpr(*e.args[i], out);
      }
      *out += ")";
      return;
    }
    case Expr::Kind::kArray: {
      *out += "[";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) *out += ", ";
        AppendExpr(*e.args[i], out);
      }
      *out += "]";
      return;
    }
    case Expr::Kind::kIndex: {
      AppendExpr(*e.lhs, out);
      *out += "[";
      for (size_t i = 0; i < e.slices.size(); ++i) {
        if (i > 0) *out += ", ";
        const Expr::SliceExpr& s = e.slices[i];
        if (s.is_index) {
          AppendExpr(*s.index, out);
          continue;
        }
        if (s.start) AppendExpr(*s.start, out);
        *out += ":";
        if (s.stop) AppendExpr(*s.stop, out);
        if (s.step) {
          *out += ":";
          AppendExpr(*s.step, out);
        }
      }
      *out += "]";
      return;
    }
  }
  *out += "?";
}

}  // namespace

std::string ExprToString(const Expr& expr) {
  std::string out;
  AppendExpr(expr, &out);
  return out;
}

}  // namespace dl::tql
