#ifndef DEEPLAKE_TQL_PARSER_H_
#define DEEPLAKE_TQL_PARSER_H_

#include <string>

#include "tql/ast.h"
#include "util/result.h"

namespace dl::tql {

/// Parses a full TQL query:
///
///   SELECT item [AS alias] (, item)* | *
///   [FROM ident [VERSION 'commit']]
///   [WHERE expr]
///   [GROUP BY expr (, expr)*]
///   [ORDER BY expr [ASC|DESC]]
///   [ARRANGE BY expr]
///   [LIMIT n [OFFSET m]]
///
/// Expressions support SQL operators plus NumPy-style indexing/slicing
/// (`images[100:500, 100:500, 0:2]`), array literals (`[100, 100, 400,
/// 400]`), function calls, and dotted tensor paths (`training.boxes` maps
/// to the grouped tensor "training/boxes").
///
/// Hostile input is an InvalidArgument, not a stack overflow: expressions
/// nest at most 256 deep (parentheses, brackets, calls, NOT, unary signs),
/// and no expression tree is more than 2,048 levels tall, which bounds
/// long operator chains such as `a + 1 + 1 ...`.
Result<Query> ParseQuery(const std::string& text);

/// Parses a standalone expression (used by tests and the dataloader's
/// filter hook).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace dl::tql

#endif  // DEEPLAKE_TQL_PARSER_H_
