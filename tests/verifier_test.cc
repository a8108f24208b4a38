#include "algebra/verifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.h"

namespace nimble {
namespace algebra {
namespace {

std::unique_ptr<MaterializedScan> Scan(std::vector<std::string> variables,
                                       size_t rows = 2) {
  TupleSchema schema(variables);
  TupleBatch data(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      data.MutableColumn(c).emplace_back(
          Value::Int(static_cast<int64_t>(r + c)));
    }
  }
  data.SetNumRows(rows);
  return std::make_unique<MaterializedScan>(std::move(schema), std::move(data),
                                            "test");
}

void ExpectViolation(const Status& s, const std::string& needle) {
  ASSERT_FALSE(s.ok()) << "expected a verifier violation";
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("plan verifier"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(needle), std::string::npos) << s.ToString();
}

/// Pass-through operator that reports a schema different from its child's
/// (a compiler that forgot to propagate a projection would look like this).
class LyingFilter : public Filter {
 public:
  LyingFilter(std::unique_ptr<Operator> child, TupleSchema lie)
      : Filter(std::move(child), {}), lie_(std::move(lie)) {}
  const TupleSchema& schema() const override { return lie_; }

 private:
  TupleSchema lie_;
};

/// HashJoin whose output schema is not the merge of its inputs.
class LyingJoin : public HashJoin {
 public:
  LyingJoin(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
            TupleSchema lie)
      : HashJoin(std::move(left), std::move(right)), lie_(std::move(lie)) {}
  const TupleSchema& schema() const override { return lie_; }

 private:
  TupleSchema lie_;
};

/// Leaf that claims a child it does not have (corrupt children_views_).
class ExtraChildScan : public MaterializedScan {
 public:
  ExtraChildScan(const Operator* bogus)
      : MaterializedScan(TupleSchema({"a"}), TupleBatch(1), "bad") {
    children_views_.push_back(bogus);
  }
};

// ---- A well-formed plan passes -------------------------------------------

TEST(VerifierTest, ValidPlanPasses) {
  auto join = std::make_unique<HashJoin>(Scan({"a", "b"}), Scan({"b", "c"}));
  BoundExpr cond = BoundExpr::Call(
      BoundExpr::Op::kGt,
      {BoundExpr::Slot(0), BoundExpr::Literal(Value::Int(1))});
  auto filter =
      std::make_unique<Filter>(std::move(join), std::vector<BoundExpr>{cond});
  auto sort = std::make_unique<Sort>(
      std::move(filter), std::vector<Sort::Key>{Sort::Key{2, true}});
  auto limit = std::make_unique<Limit>(std::move(sort), 10);
  EXPECT_TRUE(VerifyPlan(*limit).ok());

  auto agg = std::make_unique<HashAggregate>(
      Scan({"k", "v"}), std::vector<std::string>{"k"},
      std::vector<HashAggregate::Spec>{
          {HashAggregate::Fn::kSum, "v", "sum_v"}});
  EXPECT_TRUE(VerifyPlan(*agg).ok());
}

// ---- I1: schema well-formedness ------------------------------------------

TEST(VerifierTest, I1_DuplicateSchemaVariable) {
  MaterializedScan scan(TupleSchema({"a", "a"}), TupleBatch(2), "dup");
  ExpectViolation(VerifyPlan(scan), "twice");
}

TEST(VerifierTest, I1_EmptySchemaVariableName) {
  MaterializedScan scan(TupleSchema({"a", ""}), TupleBatch(2), "empty");
  ExpectViolation(VerifyPlan(scan), "empty variable name");
}

// ---- I2/I12: scan column-store well-formedness ---------------------------

TEST(VerifierTest, I2_TupleArityMismatch) {
  // A row with 1 binding under arity 2 leaves column 1 ragged; the
  // columnar check reports it.
  TupleBatch data(2);
  data.MutableColumn(0).emplace_back(Value::Int(1));
  data.SetNumRows(1);
  MaterializedScan scan(TupleSchema({"a", "b"}), std::move(data), "short");
  ExpectViolation(VerifyPlan(scan), "column 1 has 0 bindings");
}

TEST(VerifierTest, I12_SelectionIndexOutOfBounds) {
  TupleBatch data(1);
  data.MutableColumn(0).emplace_back(Value::Int(1));
  data.MutableColumn(0).emplace_back(Value::Int(2));
  data.SetNumRows(2);
  data.SetSelection({5});  // only 2 physical rows
  MaterializedScan scan(TupleSchema({"a"}), std::move(data), "oob");
  ExpectViolation(VerifyPlan(scan), "selection index 5");
}

// ---- I3: pass-through schema preservation --------------------------------

TEST(VerifierTest, I3_FilterSchemaDiffersFromChild) {
  LyingFilter filter(Scan({"a", "b"}), TupleSchema({"a"}));
  ExpectViolation(VerifyPlan(filter), "differs from child schema");
}

// ---- I4: condition / sort-key slot ranges --------------------------------

TEST(VerifierTest, I4_FilterConditionSlotOutOfRange) {
  BoundExpr cond = BoundExpr::Call(
      BoundExpr::Op::kEq,
      {BoundExpr::Slot(5), BoundExpr::Literal(Value::Int(1))});  // arity 1
  Filter filter(Scan({"a"}), {cond});
  ExpectViolation(VerifyPlan(filter), "slot 5");
}

TEST(VerifierTest, I4_SlotOutOfRangeInsideNestedExpression) {
  // (a = 1) AND NOT (abs(slot 9) > 2): the bad slot sits three levels down.
  using Op = BoundExpr::Op;
  BoundExpr inner = BoundExpr::Call(
      Op::kGt, {BoundExpr::Call(Op::kAbs, {BoundExpr::Slot(9)}),
                BoundExpr::Literal(Value::Int(2))});
  BoundExpr cond = BoundExpr::Call(
      Op::kAnd,
      {BoundExpr::Call(Op::kEq,
                       {BoundExpr::Slot(0), BoundExpr::Literal(Value::Int(1))}),
       BoundExpr::Call(Op::kNot, {std::move(inner)})});
  Filter filter(Scan({"a"}), {cond});
  ExpectViolation(VerifyPlan(filter), "slot 9");
}

TEST(VerifierTest, I4_SortKeySlotOutOfRange) {
  Sort sort(Scan({"a"}), {Sort::Key{7, false}});
  ExpectViolation(VerifyPlan(sort), "sort key slot 7");
}

TEST(VerifierTest, I4_LikeWithNonStringLiteral) {
  BoundExpr cond = BoundExpr::Call(
      BoundExpr::Op::kLike,
      {BoundExpr::Slot(0), BoundExpr::Literal(Value::Int(42))});
  Filter filter(Scan({"a"}), {cond});
  ExpectViolation(VerifyPlan(filter), "LIKE pattern");
}

// ---- I5: hash-join key consistency ---------------------------------------

TEST(VerifierTest, I5_HashJoinWithoutSharedVariables) {
  HashJoin join(Scan({"a"}), Scan({"b"}));
  ExpectViolation(VerifyPlan(join), "without shared variables");
}

TEST(VerifierTest, I5_ExplicitKeyPairsVerify) {
  HashJoin join(Scan({"c.id", "c.name"}), Scan({"o.cust", "o.total"}),
                {{0, 0}});
  EXPECT_TRUE(VerifyPlan(join).ok()) << VerifyPlan(join).ToString();
}

TEST(VerifierTest, I5_KeyPairOutsideChildSchema) {
  HashJoin join(Scan({"c.id"}), Scan({"o.cust"}), {{0, 3}});
  ExpectViolation(VerifyPlan(join), "key pair 0 exceeds the child schemas");
}

TEST(VerifierTest, I5_SharedVariableNotJoinedOn) {
  // Explicit keys over children that share a variable would drop the
  // natural join on it (and the output merge would collapse its slots).
  HashJoin join(Scan({"a", "b"}), Scan({"c", "b"}), {{0, 0}});
  ExpectViolation(VerifyPlan(join), "shared variable $b");
}

// ---- I6: join output schema ----------------------------------------------

TEST(VerifierTest, I6_JoinSchemaNotMergeOfChildren) {
  LyingJoin join(Scan({"a", "b"}), Scan({"b", "c"}), TupleSchema({"a"}));
  ExpectViolation(VerifyPlan(join), "not the merge");
}

// ---- I7: aggregate inputs exist ------------------------------------------

TEST(VerifierTest, I7_GroupVariableMissingFromChild) {
  HashAggregate agg(Scan({"a"}), {"ghost"}, {});
  ExpectViolation(VerifyPlan(agg), "group variable $ghost");
}

TEST(VerifierTest, I7_AggregateInputMissingFromChild) {
  HashAggregate agg(Scan({"a"}), {},
                    {{HashAggregate::Fn::kSum, "ghost", "sum_ghost"}});
  ExpectViolation(VerifyPlan(agg), "aggregate input $ghost");
}

TEST(VerifierTest, I7_CountStarNeedsNoInput) {
  HashAggregate agg(Scan({"a"}), {"a"}, {{HashAggregate::Fn::kCount, "", "n"}});
  EXPECT_TRUE(VerifyPlan(agg).ok());
}

// ---- I8: aggregate output schema -----------------------------------------

TEST(VerifierTest, I8_DuplicateAggregateOutputNames) {
  HashAggregate agg(Scan({"a"}), {},
                    {{HashAggregate::Fn::kCount, "", "n"},
                     {HashAggregate::Fn::kSum, "a", "n"}});
  ExpectViolation(VerifyPlan(agg), "duplicate output");
}

// ---- I9: tree shape ------------------------------------------------------

TEST(VerifierTest, I9_LeafClaimsAChild) {
  auto other = Scan({"x"});
  ExtraChildScan scan(other.get());
  ExpectViolation(VerifyPlan(scan), "expected 0 children");
}

TEST(VerifierTest, I9_NullChildView) {
  ExtraChildScan scan(nullptr);
  ExpectViolation(VerifyPlan(scan), "null child");
}

// ---- I11: batch-size agreement -------------------------------------------

TEST(VerifierTest, I11_BatchSizeDisagreesWithChild) {
  auto scan = Scan({"a"});
  scan->SetBatchSize(7);  // parent Filter keeps the default
  Filter filter(std::move(scan), {});
  ExpectViolation(VerifyPlan(filter), "batch size");
}

TEST(VerifierTest, I11_UniformBatchSizePasses) {
  auto filter = std::make_unique<Filter>(Scan({"a"}), std::vector<BoundExpr>{});
  filter->SetBatchSize(7);  // propagates to the scan
  EXPECT_TRUE(VerifyPlan(*filter).ok());
}

// ---- I10: root covers the template ---------------------------------------

TEST(VerifierTest, I10_RootSchemaMissingRequiredVariable) {
  auto scan = Scan({"a", "b"});
  EXPECT_TRUE(VerifyPlanProducesVariables(*scan, {"a", "b"}).ok());
  ExpectViolation(VerifyPlanProducesVariables(*scan, {"z"}),
                  "does not produce $z");
}

}  // namespace
}  // namespace algebra
}  // namespace nimble
