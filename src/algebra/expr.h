#ifndef NIMBLE_ALGEBRA_EXPR_H_
#define NIMBLE_ALGEBRA_EXPR_H_

#include <cstddef>
#include <vector>

#include "algebra/tuple.h"
#include "common/result.h"
#include "xmlql/ast.h"

namespace nimble {
namespace algebra {

/// A scalar expression with its variable references bound to tuple slots
/// and its operator decoded — built once per plan, evaluated per row. The
/// one evaluator for both query languages (DESIGN.md §2g): XML-QL
/// conditions bind to a comparison of two slot/literal operands
/// (BindCondition), SQL expressions to any tree (relational/planner.cc).
struct BoundExpr {
  enum class Op {
    kLiteral, kSlot, kIsNull, kIsNotNull, kNot, kNeg, kAnd, kOr, kLike,
    kEq, kNe, kLt, kLe, kGt, kGe, kAdd, kSub, kMul, kDiv, kMod, kIn,
    kUpper, kLower, kLength, kAbs,
    kNumeric,  ///< SUM/AVG input: numeric text → Double, else TypeError.
  };
  Op op = Op::kLiteral;
  Value literal;    ///< kLiteral.
  size_t slot = 0;  ///< kSlot.
  std::vector<BoundExpr> args;

  static BoundExpr Literal(Value v) {
    return {Op::kLiteral, std::move(v), 0, {}};
  }
  static BoundExpr Slot(size_t slot) { return {Op::kSlot, Value(), slot, {}}; }
  static BoundExpr Call(Op op, std::vector<BoundExpr> args) {
    return {op, Value(), 0, std::move(args)};
  }
};

/// Binds an XML-QL condition to a comparison (or LIKE) over `schema`'s
/// slots; an operand naming no slot is InvalidArgument.
Result<BoundExpr> BindCondition(const xmlql::Condition& condition,
                                const TupleSchema& schema);

/// BindCondition over a condition list, in order.
Result<std::vector<BoundExpr>> BindConditions(
    const std::vector<const xmlql::Condition*>& conditions,
    const TupleSchema& schema);

/// Evaluates `e` on physical row `row` of `batch`. Comparisons and LIKE
/// with a NULL operand are false, LIKE matches ToString() text, every other
/// comparison is Value::Compare, and a comparison reads slot and literal
/// operands in place (no copy). Arithmetic on NULL is NULL, string `+`
/// concatenates, AND/OR/IN short-circuit, and int arithmetic that would
/// overflow int64 — or division or modulo by zero — is an error instead of
/// a value.
Result<Value> Eval(const BoundExpr& e, const TupleBatch& batch, size_t row);

/// Shrinks `batch`'s selection to the active rows on which every predicate
/// is true (Value::Truthy), keeping their order; the columns stay shared
/// and unmoved. Predicates apply condition-major: each one compacts the
/// surviving rows before the next runs. The one predicate loop: Filter runs
/// it per child batch, the engine per fragment result, SQL DELETE/UPDATE
/// over the rows their access path yields. Fails when an expression does
/// (SQL arithmetic); a bound XML-QL condition cannot.
Status ApplyPredicates(const std::vector<BoundExpr>& predicates,
                       TupleBatch* batch);

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_EXPR_H_
