#include "algebra/verifier.h"

#include <cstddef>
#include <set>
#include <string>

namespace nimble {
namespace algebra {

namespace {

/// Plans are compiler output; any violation is an engine bug, reported as
/// kInternal so it can never be mistaken for a user error.
Status Violation(const Operator& op, const std::string& what) {
  return Status::Internal("plan verifier: " + op.label() + ": " + what);
}

/// I9: trees stay shallow (a query has a bounded number of patterns and
/// clauses); a deeper tree indicates a cycle or runaway construction.
constexpr int kMaxDepth = 512;

/// I1: schema slot names are non-empty and unique — a duplicate name makes
/// SlotOf ambiguous and every slot-based invariant meaningless.
Status CheckSchemaWellFormed(const Operator& op) {
  std::set<std::string> seen;
  for (const std::string& variable : op.schema().variables()) {
    if (variable.empty()) {
      return Violation(op, "schema contains an empty variable name");
    }
    if (!seen.insert(variable).second) {
      return Violation(op, "schema binds variable $" + variable + " twice");
    }
  }
  return Status::OK();
}

/// I4: every slot an expression reads — at any depth of its tree — is
/// within `arity`; a LIKE literal operand must be a string (the only
/// operand typing the untyped schema lets us check statically).
Status CheckExprSlots(const Operator& op, const BoundExpr& e, size_t arity) {
  if (e.op == BoundExpr::Op::kSlot && e.slot >= arity) {
    return Violation(op, "condition references slot " +
                             std::to_string(e.slot) +
                             " but the child schema has arity " +
                             std::to_string(arity));
  }
  if (e.op == BoundExpr::Op::kLike) {
    const char* role[] = {"subject", "pattern"};
    for (size_t i = 0; i < e.args.size() && i < 2; ++i) {
      if (e.args[i].op == BoundExpr::Op::kLiteral &&
          !e.args[i].literal.is_string()) {
        return Violation(op, std::string("LIKE ") + role[i] +
                                 " literal is not a string");
      }
    }
  }
  for (const BoundExpr& arg : e.args) {
    NIMBLE_RETURN_IF_ERROR(CheckExprSlots(op, arg, arity));
  }
  return Status::OK();
}

Status VerifyNode(const Operator& op, int depth) {
  if (depth > kMaxDepth) {
    return Violation(op, "plan deeper than " + std::to_string(kMaxDepth) +
                             " operators (cycle?)");
  }

  // I9: tree shape — the expected child count per operator kind, and no
  // null child views.
  const std::vector<const Operator*>& children = op.children();
  for (const Operator* child : children) {
    if (child == nullptr) return Violation(op, "null child operator");
  }
  int expected = -1;
  if (dynamic_cast<const MaterializedScan*>(&op) != nullptr) expected = 0;
  if (dynamic_cast<const Filter*>(&op) != nullptr ||
      dynamic_cast<const Sort*>(&op) != nullptr ||
      dynamic_cast<const Limit*>(&op) != nullptr ||
      dynamic_cast<const HashAggregate*>(&op) != nullptr) {
    expected = 1;
  }
  if (dynamic_cast<const HashJoin*>(&op) != nullptr ||
      dynamic_cast<const NestedLoopJoin*>(&op) != nullptr) {
    expected = 2;
  }
  if (expected >= 0 && static_cast<int>(children.size()) != expected) {
    return Violation(op, "expected " + std::to_string(expected) +
                             " children, found " +
                             std::to_string(children.size()));
  }

  NIMBLE_RETURN_IF_ERROR(CheckSchemaWellFormed(op));  // I1

  if (const auto* scan = dynamic_cast<const MaterializedScan*>(&op)) {
    const TupleBatch& data = scan->data();
    // I2: the scan's column store matches the declared arity.
    if (data.num_slots() != scan->schema().size()) {
      return Violation(op, "column store has " +
                               std::to_string(data.num_slots()) +
                               " columns but the schema declares " +
                               std::to_string(scan->schema().size()));
    }
    // I12: columnar well-formedness — every column holds exactly num_rows
    // bindings (a ragged column set makes PhysicalRow indexing UB), and
    // every selection entry addresses a physical row.
    for (size_t slot = 0; slot < data.num_slots(); ++slot) {
      if (data.column(slot).size() != data.num_rows()) {
        return Violation(op, "column " + std::to_string(slot) + " has " +
                                 std::to_string(data.column(slot).size()) +
                                 " bindings but the batch declares " +
                                 std::to_string(data.num_rows()) + " rows");
      }
    }
    if (data.has_selection()) {
      for (uint32_t phys : data.selection()) {
        if (phys >= data.num_rows()) {
          return Violation(op, "selection index " + std::to_string(phys) +
                                   " exceeds physical row count " +
                                   std::to_string(data.num_rows()));
        }
      }
    }
  }

  // I11: batch-size agreement — every operator in the tree produces batches
  // of the same configured capacity. A mismatch means SetBatchSize was
  // applied to a subtree only, so a parent sized for N rows could receive
  // child batches of more than N.
  for (const Operator* child : children) {
    if (child->batch_size() != op.batch_size()) {
      return Violation(op, "batch size " + std::to_string(op.batch_size()) +
                               " disagrees with child " + child->label() +
                               " batch size " +
                               std::to_string(child->batch_size()));
    }
  }

  if (const auto* filter = dynamic_cast<const Filter*>(&op)) {
    const Operator& child = *children[0];
    // I3: pass-through operators preserve their child's schema.
    if (!(filter->schema() == child.schema())) {
      return Violation(op, "schema " + filter->schema().ToString() +
                               " differs from child schema " +
                               child.schema().ToString());
    }
    for (const BoundExpr& predicate : filter->predicates()) {
      NIMBLE_RETURN_IF_ERROR(
          CheckExprSlots(op, predicate, child.schema().size()));
    }
  }

  if (const auto* sort = dynamic_cast<const Sort*>(&op)) {
    const Operator& child = *children[0];
    if (!(sort->schema() == child.schema())) {  // I3
      return Violation(op, "schema " + sort->schema().ToString() +
                               " differs from child schema " +
                               child.schema().ToString());
    }
    for (const Sort::Key& key : sort->keys()) {  // I4
      if (key.slot >= child.schema().size()) {
        return Violation(op, "sort key slot " + std::to_string(key.slot) +
                                 " exceeds child arity " +
                                 std::to_string(child.schema().size()));
      }
    }
  }

  if (const auto* limit = dynamic_cast<const Limit*>(&op)) {
    if (!(limit->schema() == children[0]->schema())) {  // I3
      return Violation(op, "schema " + limit->schema().ToString() +
                               " differs from child schema " +
                               children[0]->schema().ToString());
    }
  }

  if (const auto* join = dynamic_cast<const HashJoin*>(&op)) {
    const TupleSchema& left = children[0]->schema();
    const TupleSchema& right = children[1]->schema();
    // I5: a hash join has at least one key pair, every pair addresses its
    // children's schemas, and every variable the children share is a pair
    // (a natural join's keys are exactly its shared variables; an
    // explicit-key join's children share none).
    const std::vector<size_t>& lk = join->left_key_slots();
    const std::vector<size_t>& rk = join->right_key_slots();
    if (lk.empty()) {
      return Violation(op, "hash join without shared variables or key pairs "
                           "(should be a NestedLoopJoin)");
    }
    for (size_t i = 0; i < lk.size(); ++i) {
      if (i >= rk.size() || lk[i] >= left.size() || rk[i] >= right.size()) {
        return Violation(op, "key pair " + std::to_string(i) +
                                 " exceeds the child schemas " +
                                 left.ToString() + " / " + right.ToString());
      }
    }
    for (const std::string& variable : left.variables()) {
      bool keyed = !right.SlotOf(variable).has_value();
      for (size_t i = 0; i < lk.size() && !keyed; ++i) {
        keyed = left.variables()[lk[i]] == variable &&
                right.variables()[rk[i]] == variable;
      }
      if (!keyed) {
        return Violation(op, "shared variable $" + variable +
                                 " is not a key pair of the join");
      }
    }
    // I6: join output is exactly the merged child schemas.
    if (!(join->schema() == left.Merge(right))) {
      return Violation(op, "schema " + join->schema().ToString() +
                               " is not the merge of its children (" +
                               left.Merge(right).ToString() + ")");
    }
  }

  if (const auto* nlj = dynamic_cast<const NestedLoopJoin*>(&op)) {
    const TupleSchema& left = children[0]->schema();
    const TupleSchema& right = children[1]->schema();
    if (!(nlj->schema() == left.Merge(right))) {  // I6
      return Violation(op, "schema " + nlj->schema().ToString() +
                               " is not the merge of its children (" +
                               left.Merge(right).ToString() + ")");
    }
  }

  if (const auto* agg = dynamic_cast<const HashAggregate*>(&op)) {
    const TupleSchema& child = children[0]->schema();
    // I7: grouping keys and aggregate inputs must exist in the child.
    for (const std::string& variable : agg->group_variables()) {
      if (!child.SlotOf(variable).has_value()) {
        return Violation(op, "group variable $" + variable +
                                 " is not produced by the child schema " +
                                 child.ToString());
      }
    }
    for (const HashAggregate::Spec& spec : agg->specs()) {
      if (spec.fn == HashAggregate::Fn::kCount && spec.input_variable.empty()) {
        continue;  // count(*) needs no input slot
      }
      if (!child.SlotOf(spec.input_variable).has_value()) {
        return Violation(op, "aggregate input $" + spec.input_variable +
                                 " is not produced by the child schema " +
                                 child.ToString());
      }
    }
    // I8: output schema is exactly groups then aggregate outputs, with no
    // name collisions (a collision silently folds two outputs into one
    // slot).
    TupleSchema expected;
    for (const std::string& variable : agg->group_variables()) {
      expected.AddVariable(variable);
    }
    for (const HashAggregate::Spec& spec : agg->specs()) {
      expected.AddVariable(spec.output_variable);
    }
    if (expected.size() !=
        agg->group_variables().size() + agg->specs().size()) {
      return Violation(op, "duplicate output variable names in aggregate "
                           "schema " +
                               expected.ToString());
    }
    if (!(agg->schema() == expected)) {
      return Violation(op, "schema " + agg->schema().ToString() +
                               " does not match groups + outputs (" +
                               expected.ToString() + ")");
    }
  }

  // I13: cost annotations are all-or-none across the tree, and internally
  // consistent where present. An annotated parent with an unannotated child
  // means the optimizer skipped a node; an estimate that grows through a
  // row-reducing operator means the propagation arithmetic is wrong.
  if (op.has_estimated_rows()) {
    for (const Operator* child : children) {
      if (!child->has_estimated_rows()) {
        return Violation(op, "cost annotation present but child " +
                                 child->label() + " has none");
      }
    }
    if (op.estimated_rows() < 0.0 ||
        !(op.estimated_rows() == op.estimated_rows())) {  // NaN check
      return Violation(op, "cost annotation is negative or NaN");
    }
    // Allow 0.5 rows of rounding slack: estimates pass through llround for
    // display and several multiplicative stages.
    constexpr double kSlack = 0.5;
    if (dynamic_cast<const Filter*>(&op) != nullptr ||
        dynamic_cast<const Limit*>(&op) != nullptr ||
        dynamic_cast<const HashAggregate*>(&op) != nullptr) {
      if (op.estimated_rows() > children[0]->estimated_rows() + kSlack) {
        return Violation(op, "estimate " +
                                 std::to_string(op.estimated_rows()) +
                                 " exceeds child estimate " +
                                 std::to_string(children[0]->estimated_rows()));
      }
    }
    if (dynamic_cast<const Sort*>(&op) != nullptr) {
      if (op.estimated_rows() != children[0]->estimated_rows()) {
        return Violation(op, "sort estimate " +
                                 std::to_string(op.estimated_rows()) +
                                 " differs from child estimate " +
                                 std::to_string(children[0]->estimated_rows()));
      }
    }
    if (dynamic_cast<const HashJoin*>(&op) != nullptr ||
        dynamic_cast<const NestedLoopJoin*>(&op) != nullptr) {
      double product = children[0]->estimated_rows() *
                       children[1]->estimated_rows();
      if (op.estimated_rows() > product + kSlack) {
        return Violation(op, "join estimate " +
                                 std::to_string(op.estimated_rows()) +
                                 " exceeds the product of its children (" +
                                 std::to_string(product) + ")");
      }
    }
  } else {
    for (const Operator* child : children) {
      if (child->has_estimated_rows()) {
        return Violation(op, "child " + child->label() +
                                 " has a cost annotation but this node has "
                                 "none");
      }
    }
  }

  for (const Operator* child : children) {
    NIMBLE_RETURN_IF_ERROR(VerifyNode(*child, depth + 1));
  }
  return Status::OK();
}

}  // namespace

Status VerifyPlan(const Operator& root) { return VerifyNode(root, 0); }

Status VerifyPlanProducesVariables(const Operator& root,
                                   const std::vector<std::string>& required) {
  for (const std::string& variable : required) {
    if (!root.schema().SlotOf(variable).has_value()) {  // I10
      return Violation(root, "plan does not produce $" + variable +
                                 " required by the CONSTRUCT template");
    }
  }
  return Status::OK();
}

}  // namespace algebra
}  // namespace nimble
