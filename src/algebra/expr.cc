#include "algebra/expr.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/strings.h"

namespace nimble {
namespace algebra {

namespace {

using Op = BoundExpr::Op;

bool IsComparison(Op op) {
  return op == Op::kLike || (op >= Op::kEq && op <= Op::kGe);
}

/// `lhs op rhs` for a comparison or LIKE. A null operand makes every
/// comparison false, LIKE included — as in the SQL a pushed-down condition
/// runs as, so pushdown never changes an answer. Inlined into the
/// predicate loop, its hot path.
[[gnu::always_inline]] inline bool Compare(Op op, const Value& lhs,
                                           const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;
  if (op == Op::kLike) return LikeMatch(lhs.ToString(), rhs.ToString());
  const int cmp = lhs.Compare(rhs);
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

/// A comparison operand that is a slot or a literal, resolved once per
/// batch and read in place per row.
struct InPlace {
  const std::vector<Binding>* column = nullptr;  ///< a slot's column, or
  const Value* literal = nullptr;                ///< the literal.

  static std::optional<InPlace> Of(const BoundExpr& e,
                                   const TupleBatch& batch) {
    if (e.op == Op::kSlot) return InPlace{&batch.column(e.slot), nullptr};
    if (e.op == Op::kLiteral) return InPlace{nullptr, &e.literal};
    return std::nullopt;
  }
  const Value& At(size_t row) const {
    return column != nullptr ? (*column)[row].AsScalar() : *literal;
  }
};

Result<Value> EvalArithmetic(Op op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == Op::kAdd && (lhs.is_string() || rhs.is_string())) {
    return Value::String(lhs.ToString() + rhs.ToString());
  }
  if (lhs.is_int() && rhs.is_int() && op != Op::kDiv) {
    const int64_t a = lhs.AsInt(), b = rhs.AsInt();
    int64_t out = 0;
    bool overflow = false;
    if (op == Op::kAdd) overflow = __builtin_add_overflow(a, b, &out);
    if (op == Op::kSub) overflow = __builtin_sub_overflow(a, b, &out);
    if (op == Op::kMul) overflow = __builtin_mul_overflow(a, b, &out);
    if (op == Op::kMod) {
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      if (!overflow) out = a % b;
    }
    if (overflow) return Status::InvalidArgument("integer overflow");
    return Value::Int(out);
  }
  NIMBLE_ASSIGN_OR_RETURN(double a, lhs.ToDouble());
  NIMBLE_ASSIGN_OR_RETURN(double b, rhs.ToDouble());
  if (op == Op::kDiv && b == 0) {
    return Status::InvalidArgument("division by zero");
  }
  if (op == Op::kMod && b == 0) {
    return Status::InvalidArgument("modulo by zero");
  }
  return Value::Double(op == Op::kAdd   ? a + b
                       : op == Op::kSub ? a - b
                       : op == Op::kMul ? a * b
                       : op == Op::kDiv ? a / b
                                        : std::fmod(a, b));
}

}  // namespace

Result<BoundExpr> BindCondition(const xmlql::Condition& condition,
                                const TupleSchema& schema) {
  // Indexed by xmlql::Condition::Op, which lists the same operators in the
  // same order.
  static constexpr Op kOps[] = {Op::kEq, Op::kNe, Op::kLt,  Op::kLe,
                                Op::kGt, Op::kGe, Op::kLike};
  std::vector<BoundExpr> operands;
  for (const xmlql::Condition::Operand* operand :
       {&condition.lhs, &condition.rhs}) {
    if (!operand->is_variable) {
      operands.push_back(BoundExpr::Literal(operand->literal));
      continue;
    }
    std::optional<size_t> slot = schema.SlotOf(operand->variable);
    if (!slot.has_value()) {
      return Status::InvalidArgument("unbound variable $" + operand->variable);
    }
    operands.push_back(BoundExpr::Slot(*slot));
  }
  return BoundExpr::Call(kOps[static_cast<size_t>(condition.op)],
                         std::move(operands));
}

Result<std::vector<BoundExpr>> BindConditions(
    const std::vector<const xmlql::Condition*>& conditions,
    const TupleSchema& schema) {
  std::vector<BoundExpr> bound;
  bound.reserve(conditions.size());
  for (const xmlql::Condition* condition : conditions) {
    NIMBLE_ASSIGN_OR_RETURN(BoundExpr b, BindCondition(*condition, schema));
    bound.push_back(std::move(b));
  }
  return bound;
}

Result<Value> Eval(const BoundExpr& e, const TupleBatch& batch, size_t row) {
  if (e.op == Op::kLiteral) return e.literal;
  if (e.op == Op::kSlot) return batch.column(e.slot)[row].AsScalar();
  if (IsComparison(e.op)) {
    // Slot and literal operands are read in place; others evaluate, left
    // first.
    Value evaluated[2];
    const Value* operands[2];
    for (size_t i = 0; i < 2; ++i) {
      if (std::optional<InPlace> in_place = InPlace::Of(e.args[i], batch)) {
        operands[i] = &in_place->At(row);
      } else {
        NIMBLE_ASSIGN_OR_RETURN(evaluated[i], Eval(e.args[i], batch, row));
        operands[i] = &evaluated[i];
      }
    }
    return Value::Bool(Compare(e.op, *operands[0], *operands[1]));
  }
  NIMBLE_ASSIGN_OR_RETURN(const Value v, Eval(e.args[0], batch, row));
  switch (e.op) {
    case Op::kAnd:
    case Op::kOr: {
      if (v.Truthy() == (e.op == Op::kOr)) return Value::Bool(v.Truthy());
      NIMBLE_ASSIGN_OR_RETURN(const Value rhs, Eval(e.args[1], batch, row));
      return Value::Bool(rhs.Truthy());
    }
    case Op::kNot:
      return Value::Bool(!v.Truthy());
    case Op::kIn:
      if (v.is_null()) return Value::Bool(false);
      for (size_t i = 1; i < e.args.size(); ++i) {
        NIMBLE_ASSIGN_OR_RETURN(const Value candidate,
                                Eval(e.args[i], batch, row));
        if (!candidate.is_null() && v == candidate) return Value::Bool(true);
      }
      return Value::Bool(false);
    case Op::kIsNull:
    case Op::kIsNotNull:
      return Value::Bool(v.is_null() == (e.op == Op::kIsNull));
    case Op::kNeg:
    case Op::kAbs: {
      if (v.is_null()) return Value::Null();
      if (v.is_int()) {
        if (v.AsInt() == std::numeric_limits<int64_t>::min()) {
          return Status::InvalidArgument("integer overflow");
        }
        return Value::Int(e.op == Op::kNeg ? -v.AsInt()
                                           : std::llabs(v.AsInt()));
      }
      NIMBLE_ASSIGN_OR_RETURN(double d, v.ToDouble());
      return Value::Double(e.op == Op::kNeg ? -d : std::fabs(d));
    }
    case Op::kUpper:
    case Op::kLower:
    case Op::kLength:
      if (v.is_null()) return Value::Null();
      if (e.op == Op::kUpper) return Value::String(ToUpper(v.ToString()));
      if (e.op == Op::kLower) return Value::String(ToLower(v.ToString()));
      return Value::Int(static_cast<int64_t>(v.ToString().size()));
    case Op::kNumeric: {
      if (v.is_null() || v.is_numeric()) return v;
      NIMBLE_ASSIGN_OR_RETURN(double d, v.ToDouble());
      return Value::Double(d);
    }
    default:
      break;
  }
  NIMBLE_ASSIGN_OR_RETURN(const Value rhs, Eval(e.args[1], batch, row));
  return EvalArithmetic(e.op, v, rhs);
}

Status ApplyPredicates(const std::vector<BoundExpr>& predicates,
                       TupleBatch* batch) {
  if (predicates.empty()) return Status::OK();
  std::vector<uint32_t> selection;
  selection.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    selection.push_back(static_cast<uint32_t>(batch->PhysicalRow(i)));
  }
  for (const BoundExpr& predicate : predicates) {
    size_t kept = 0;
    std::optional<InPlace> lhs, rhs;
    if (IsComparison(predicate.op)) {
      lhs = InPlace::Of(predicate.args[0], *batch);
      rhs = InPlace::Of(predicate.args[1], *batch);
    }
    if (lhs.has_value() && rhs.has_value()) {
      // A comparison of slots and literals — every XML-QL condition —
      // cannot fail: the row loop compares the operands in place, with no
      // Result per row.
      const Op op = predicate.op;
      for (uint32_t phys : selection) {
        if (Compare(op, lhs->At(phys), rhs->At(phys))) selection[kept++] = phys;
      }
    } else {
      for (uint32_t phys : selection) {
        NIMBLE_ASSIGN_OR_RETURN(const Value v, Eval(predicate, *batch, phys));
        if (v.Truthy()) selection[kept++] = phys;
      }
    }
    selection.resize(kept);
    if (selection.empty()) break;
  }
  batch->SetSelection(std::move(selection));
  return Status::OK();
}

}  // namespace algebra
}  // namespace nimble
