#include <gtest/gtest.h>

#include "algebra/construct.h"
#include "algebra/operators.h"
#include "algebra/pattern_match.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmlql/parser.h"

namespace nimble {
namespace algebra {
namespace {

// Helper: parse a one-pattern query and match its pattern against a doc.
std::pair<TupleSchema, TupleBatch> Match(const std::string& pattern_q,
                                         const std::string& xml) {
  Result<xmlql::Query> q = xmlql::ParseQuery(pattern_q);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  Result<NodePtr> doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  TupleSchema schema = SchemaForPattern(q->patterns[0].root);
  Result<TupleBatch> rows = MatchPattern(q->patterns[0].root, *doc, schema);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return {schema, std::move(*rows)};
}

/// A batch holding `rows` (each one value per column).
TupleBatch MakeBatch(size_t num_slots, std::vector<std::vector<Value>> rows) {
  TupleBatch batch(num_slots);
  for (auto& row : rows) {
    for (size_t slot = 0; slot < num_slots; ++slot) {
      batch.MutableColumn(slot).emplace_back(std::move(row[slot]));
    }
  }
  batch.SetNumRows(rows.size());
  return batch;
}

std::unique_ptr<MaterializedScan> MakeScanPtr(
    std::vector<std::string> vars, std::vector<std::vector<Value>> rows) {
  TupleSchema schema(std::move(vars));
  TupleBatch data = MakeBatch(schema.size(), std::move(rows));
  return std::make_unique<MaterializedScan>(std::move(schema),
                                            std::move(data));
}

// ---- Binding / schema ---------------------------------------------------------

TEST(BindingTest, States) {
  Binding unset;
  EXPECT_TRUE(unset.is_unset());
  EXPECT_TRUE(unset.AsScalar().is_null());
  Binding scalar{Value::Int(5)};
  EXPECT_TRUE(scalar.is_scalar());
  EXPECT_EQ(scalar.AsScalar(), Value::Int(5));
  Binding node{Node::Element("e")};
  EXPECT_TRUE(node.is_node());
}

TEST(BindingTest, JoinEquality) {
  EXPECT_TRUE(Binding{Value::Int(3)}.EqualsForJoin(Binding{Value::Double(3)}));
  EXPECT_FALSE(Binding{}.EqualsForJoin(Binding{Value::Int(3)}));
  NodePtr e = Node::Element("year");
  e->AddChild(Node::Text(Value::Int(2001)));
  // A node binding joins with a scalar via its scalar view.
  EXPECT_TRUE(Binding{e}.EqualsForJoin(Binding{Value::Int(2001)}));
}

TEST(TupleSchemaTest, AddAndMerge) {
  TupleSchema a({"x", "y"});
  EXPECT_EQ(a.SlotOf("y"), std::optional<size_t>(1));
  EXPECT_FALSE(a.SlotOf("z").has_value());
  EXPECT_EQ(a.AddVariable("x"), 0u);  // idempotent
  TupleSchema b({"y", "z"});
  TupleSchema merged = a.Merge(b);
  EXPECT_EQ(merged.variables(), (std::vector<std::string>{"x", "y", "z"}));
}

// ---- TupleBatch -------------------------------------------------------------

TEST(TupleBatchTest, AppendCopiesExactlyTheActiveRowsInOrder) {
  TupleBatch source = MakeBatch(2, {{Value::Int(0), Value::String("a")},
                                    {Value::Int(1), Value::String("b")},
                                    {Value::Int(2), Value::String("c")},
                                    {Value::Int(3), Value::String("d")},
                                    {Value::Int(4), Value::String("e")}});
  TupleBatch sliced = source.Slice(1, 3);  // rows 1, 2, 3
  TupleBatch filtered = source;
  xmlql::Condition odd;
  odd.op = xmlql::Condition::Op::kNe;
  odd.lhs.is_variable = true;
  odd.lhs.variable = "k";
  odd.rhs.literal = Value::Int(2);
  Result<BoundExpr> bc = BindCondition(odd, TupleSchema({"k", "v"}));
  ASSERT_TRUE(bc.ok());
  ASSERT_TRUE(ApplyPredicates({*bc}, &filtered).ok());  // rows 0, 1, 3, 4
  TupleBatch reordered = source.Select({4, 0});

  TupleBatch out(2);
  out.Append(sliced);
  out.Append(filtered);
  out.Append(reordered);
  out.Append(TupleBatch(2));  // empty: no rows
  EXPECT_FALSE(out.has_selection());
  ASSERT_EQ(out.num_rows(), 9u);
  ASSERT_EQ(out.column(0).size(), 9u);
  ASSERT_EQ(out.column(1).size(), 9u);
  const std::vector<int64_t> keys = {1, 2, 3, 0, 1, 3, 4, 4, 0};
  const std::string payloads = "bcdabdeea";
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out.binding(0, i).AsScalar(), Value::Int(keys[i])) << i;
    EXPECT_EQ(out.binding(1, i).AsScalar(),
              Value::String(std::string(1, payloads[i])))
        << i;
  }
  // The views still read the unchanged source columns.
  EXPECT_EQ(sliced.size(), 3u);
  EXPECT_EQ(filtered.size(), 4u);
  EXPECT_EQ(source.size(), 5u);
}

// ---- Pattern matching ----------------------------------------------------------

TEST(PatternMatchTest, FlatRecords) {
  auto [schema, rows] = Match(
      "WHERE <t><r><a>$a</a><b>$b</b></r></t> IN \"s:t\" CONSTRUCT <o>$a</o>",
      "<t><r><a>1</a><b>x</b></r><r><a>2</a><b>y</b></r></t>");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.binding(*schema.SlotOf("a"), 0).AsScalar(), Value::Int(1));
  EXPECT_EQ(rows.binding(*schema.SlotOf("b"), 1).AsScalar(),
            Value::String("y"));
}

TEST(PatternMatchTest, MissingRequiredChildDropsRecord) {
  auto [schema, rows] = Match(
      "WHERE <t><r><a>$a</a><b>$b</b></r></t> IN \"s:t\" CONSTRUCT <o>$a</o>",
      "<t><r><a>1</a></r><r><a>2</a><b>y</b></r></t>");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.binding(*schema.SlotOf("a"), 0).AsScalar(), Value::Int(2));
}

TEST(PatternMatchTest, MultipleChildrenCartesian) {
  auto [schema, rows] = Match(
      "WHERE <o><item><sku>$s</sku></item><item><sku>$t</sku></item></o> "
      "IN \"s:o\" CONSTRUCT <x>$s</x>",
      "<o><item><sku>a</sku></item><item><sku>b</sku></item></o>");
  // 2 choices for first item pattern × 2 for second = 4 combinations.
  EXPECT_EQ(rows.size(), 4u);
}

TEST(PatternMatchTest, RepeatedVariableUnifies) {
  auto [schema, rows] = Match(
      "WHERE <d><p><a>$x</a></p><q><b>$x</b></q></d> IN \"s:d\" "
      "CONSTRUCT <o>$x</o>",
      "<d><p><a>1</a></p><p><a>2</a></p><q><b>2</b></q><q><b>3</b></q></d>");
  // Only $x=2 appears on both sides.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.binding(*schema.SlotOf("x"), 0).AsScalar(), Value::Int(2));
}

TEST(PatternMatchTest, AttributeLiteralConstraint) {
  auto [schema, rows] = Match(
      "WHERE <t><r k=\"keep\"><v>$v</v></r></t> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><r k=\"keep\"><v>1</v></r><r k=\"drop\"><v>2</v></r>"
      "<r><v>3</v></r></t>");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.binding(0, 0).AsScalar(), Value::Int(1));
}

TEST(PatternMatchTest, DescendantRootSearchesAnywhere) {
  auto [schema, rows] = Match(
      "WHERE <//leaf><v>$v</v></leaf> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><mid><leaf><v>1</v></leaf></mid><leaf><v>2</v></leaf></t>");
  EXPECT_EQ(rows.size(), 2u);
}

TEST(PatternMatchTest, RootMismatchYieldsNothing) {
  auto [schema, rows] = Match(
      "WHERE <nope><r><v>$v</v></r></nope> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><r><v>1</v></r></t>");
  EXPECT_TRUE(rows.empty());
}

TEST(PatternMatchTest, ElementAsBindsNode) {
  auto [schema, rows] = Match(
      "WHERE <t><r ELEMENT_AS $e><v>$v</v></r></t> IN \"s:t\" "
      "CONSTRUCT <o>$v</o>",
      "<t><r><v>7</v><extra>z</extra></r></t>");
  ASSERT_EQ(rows.size(), 1u);
  const Binding& e = rows.binding(*schema.SlotOf("e"), 0);
  ASSERT_TRUE(e.is_node());
  EXPECT_EQ(e.node()->FindChild("extra")->ScalarValue(), Value::String("z"));
}

// ---- Operators -----------------------------------------------------------------

TEST(OperatorTest, MaterializedScanDrain) {
  auto scan = MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(2)}});
  Result<TupleBatch> all = scan->Drain();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(OperatorTest, FilterKeepsPassing) {
  auto scan =
      MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(5)}, {Value::Int(9)}});
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kGt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "x";
  cond.rhs.literal = Value::Int(3);
  Result<BoundExpr> bc = BindCondition(cond, scan->schema());
  ASSERT_TRUE(bc.ok());
  Filter filter(std::move(scan), {*bc});
  Result<TupleBatch> out = filter.Drain();
  ASSERT_TRUE(out.ok());
  // Drain compacts the filtered views into one batch with no selection.
  EXPECT_FALSE(out->has_selection());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->binding(0, 0).AsScalar(), Value::Int(5));
  EXPECT_EQ(out->binding(0, 1).AsScalar(), Value::Int(9));
}

TEST(OperatorTest, HashJoinOnSharedVariable) {
  auto left = MakeScanPtr({"id", "name"}, {{Value::Int(1), Value::String("a")},
                                           {Value::Int(2), Value::String("b")},
                                           {Value::Int(3), Value::String("c")}});
  auto right = MakeScanPtr({"id", "total"}, {{Value::Int(1), Value::Int(10)},
                                             {Value::Int(1), Value::Int(20)},
                                             {Value::Int(3), Value::Int(30)},
                                             {Value::Int(9), Value::Int(99)}});
  HashJoin join(std::move(left), std::move(right));
  EXPECT_EQ(join.join_variables(), (std::vector<std::string>{"id"}));
  EXPECT_EQ(join.schema().variables(),
            (std::vector<std::string>{"id", "name", "total"}));
  Result<TupleBatch> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);  // 1→10, 1→20, 3→30
}

TEST(OperatorTest, HashJoinOnExplicitKeyPairs) {
  // SQL-style inputs: the key columns carry different names.
  auto left = MakeScanPtr({"c.id", "c.name"},
                          {{Value::Int(1), Value::String("a")},
                           {Value::Null(), Value::String("n")},
                           {Value::Int(3), Value::String("c")}});
  auto right = MakeScanPtr({"o.cust", "o.total"},
                           {{Value::Int(3), Value::Int(30)},
                            {Value::Int(1), Value::Int(10)},
                            {Value::Null(), Value::Int(0)},
                            {Value::Double(1.0), Value::Int(20)}});
  HashJoin join(std::move(left), std::move(right), {{0, 0}});
  EXPECT_EQ(join.schema().variables(),
            (std::vector<std::string>{"c.id", "c.name", "o.cust", "o.total"}));
  EXPECT_EQ(join.label(), "HashJoin($c.id=$o.cust)");
  Result<TupleBatch> out = join.Drain();
  ASSERT_TRUE(out.ok());
  // Probe-major in left order, build rows in right order; 1 joins 1.0,
  // null joins nothing.
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ(out->binding(3, 0).AsScalar(), Value::Int(10));
  EXPECT_EQ(out->binding(3, 1).AsScalar(), Value::Int(20));
  EXPECT_EQ(out->binding(3, 2).AsScalar(), Value::Int(30));
}

TEST(OperatorTest, HashAggregateSumFallsBackToDouble) {
  auto scan = MakeScanPtr({"v"}, {{Value::Int(9223372036854775807)},
                                  {Value::Int(1)}});
  HashAggregate agg(std::move(scan), {}, {{HashAggregate::Fn::kSum, "v", "s"}});
  Result<TupleBatch> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->binding(0, 0).AsScalar().is_double());
}

TEST(OperatorTest, HashJoinNullNeverJoins) {
  auto left = MakeScanPtr({"k"}, {{Value::Null()}, {Value::Int(1)}});
  auto right = MakeScanPtr({"k"}, {{Value::Null()}, {Value::Int(1)}});
  HashJoin join(std::move(left), std::move(right));
  Result<TupleBatch> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(OperatorTest, NestedLoopJoinCartesianWithCondition) {
  auto left = MakeScanPtr({"a"}, {{Value::Int(1)}, {Value::Int(5)}});
  auto right = MakeScanPtr({"b"}, {{Value::Int(2)}, {Value::Int(4)}});
  // a < b
  TupleSchema joined = TupleSchema({"a"}).Merge(TupleSchema({"b"}));
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kLt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "a";
  cond.rhs.is_variable = true;
  cond.rhs.variable = "b";
  Result<BoundExpr> bc = BindCondition(cond, joined);
  ASSERT_TRUE(bc.ok());
  // The condition is a Filter over the cartesian join, as both planners
  // build it.
  Filter join(
      std::make_unique<NestedLoopJoin>(std::move(left), std::move(right)),
      {*bc});
  Result<TupleBatch> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // (1,2), (1,4)
}

TEST(OperatorTest, SortStableMultiKey) {
  auto scan = MakeScanPtr(
      {"g", "v"},
      {{Value::String("b"), Value::Int(1)}, {Value::String("a"), Value::Int(2)},
       {Value::String("a"), Value::Int(1)}, {Value::String("b"), Value::Int(2)}});
  Sort sort(std::move(scan), {{0, false}, {1, true}});
  Result<TupleBatch> out = sort.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->binding(0, 0).AsScalar(), Value::String("a"));
  EXPECT_EQ(out->binding(1, 0).AsScalar(), Value::Int(2));
  EXPECT_EQ(out->binding(1, 3).AsScalar(), Value::Int(1));
}

TEST(OperatorTest, LimitCutsOff) {
  auto scan =
      MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}});
  Limit limit(std::move(scan), 2);
  Result<TupleBatch> out = limit.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(OperatorTest, HashAggregateGrouped) {
  auto scan = MakeScanPtr(
      {"city", "amount"},
      {{Value::String("sea"), Value::Int(10)},
       {Value::String("pdx"), Value::Int(5)},
       {Value::String("sea"), Value::Int(20)}});
  HashAggregate agg(std::move(scan), {"city"},
                    {{HashAggregate::Fn::kCount, "", "n"},
                     {HashAggregate::Fn::kSum, "amount", "total"},
                     {HashAggregate::Fn::kMax, "amount", "biggest"}});
  Result<TupleBatch> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  const TupleSchema& schema = agg.schema();
  EXPECT_EQ(out->binding(*schema.SlotOf("city"), 0).AsScalar(),
            Value::String("sea"));
  EXPECT_EQ(out->binding(*schema.SlotOf("n"), 0).AsScalar(), Value::Int(2));
  // SUM over ints is an exact Int.
  EXPECT_EQ(out->binding(*schema.SlotOf("total"), 0).AsScalar(),
            Value::Int(30));
  EXPECT_TRUE(out->binding(*schema.SlotOf("total"), 0).AsScalar().is_int());
  EXPECT_EQ(out->binding(*schema.SlotOf("biggest"), 0).AsScalar(),
            Value::Int(20));
}

TEST(OperatorTest, HashAggregateGlobalGroup) {
  auto scan = MakeScanPtr({"v"}, {{Value::Int(4)}, {Value::Int(6)}});
  HashAggregate agg(std::move(scan), {},
                    {{HashAggregate::Fn::kAvg, "v", "mean"}});
  Result<TupleBatch> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->binding(0, 0).AsScalar(), Value::Double(5.0));
}

TEST(OperatorTest, HashAggregateKeysOnValuesNotText) {
  // 1700000000.123 and 1700000000.124 print alike at 12 significant
  // digits but are two groups; 3 and 3.0 stay apart by type; -0.0 and 0.0
  // compare equal and are one group. Groups keep first-appearance order.
  auto scan = MakeScanPtr({"t"}, {{Value::Double(1700000000.123)},
                                  {Value::Double(1700000000.124)},
                                  {Value::Int(3)},
                                  {Value::Double(3.0)},
                                  {Value::Double(-0.0)},
                                  {Value::Double(0.0)},
                                  {Value::Double(1700000000.123)}});
  HashAggregate agg(std::move(scan), {"t"},
                    {{HashAggregate::Fn::kCount, "", "n"}});
  Result<TupleBatch> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 5u);
  const std::vector<int64_t> counts = {2, 1, 1, 1, 2};
  for (size_t g = 0; g < counts.size(); ++g) {
    EXPECT_EQ(out->binding(1, g).AsScalar(), Value::Int(counts[g])) << g;
  }
  EXPECT_TRUE(out->binding(0, 2).AsScalar().is_int());
  EXPECT_TRUE(out->binding(0, 3).AsScalar().is_double());
}

TEST(OperatorTest, DescribeRendersTree) {
  auto left = MakeScanPtr({"x"}, {{Value::Int(1)}});
  auto right = MakeScanPtr({"x"}, {{Value::Int(1)}});
  HashJoin join(std::move(left), std::move(right));
  std::string description = join.Describe();
  EXPECT_NE(description.find("HashJoin($x)"), std::string::npos);
  EXPECT_NE(description.find("Scan"), std::string::npos);
}

// ---- Construct -------------------------------------------------------------------

TEST(ConstructTest, InstantiatesPerTuple) {
  Result<xmlql::Query> q = xmlql::ParseQuery(
      "WHERE <t><r><a>$a</a></r></t> IN \"s:t\" "
      "CONSTRUCT <row id=$a><val>$a</val></row>");
  ASSERT_TRUE(q.ok());
  auto scan = MakeScanPtr({"a"}, {{Value::Int(1)}, {Value::Int(2)}});
  Result<NodePtr> doc = ConstructResult(scan.get(), *q->construct);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->children().size(), 2u);
  EXPECT_EQ((*doc)->children()[1]->GetAttribute("id"), Value::Int(2));
  EXPECT_EQ((*doc)->children()[1]->FindChild("val")->ScalarValue(),
            Value::Int(2));
}

// ---- Property: join order invariance ----------------------------------------------

class JoinCommutativity : public ::testing::TestWithParam<int> {};

TEST_P(JoinCommutativity, HashJoinResultSetIsOrderInsensitive) {
  // Generate two deterministic relations from the seed and check |A ⋈ B| ==
  // |B ⋈ A| and result multisets match (compared via sorted serialization).
  int seed = GetParam();
  std::vector<std::vector<Value>> left_rows, right_rows;
  for (int i = 0; i < 20; ++i) {
    left_rows.push_back({Value::Int((i * seed) % 7), Value::Int(i)});
    right_rows.push_back({Value::Int((i * (seed + 3)) % 5), Value::Int(i)});
  }
  auto drain_sorted = [](Operator* op) {
    Result<TupleBatch> out = op->Drain();
    EXPECT_TRUE(out.ok());
    std::vector<std::string> rendered;
    std::vector<std::string> vars = op->schema().variables();
    std::sort(vars.begin(), vars.end());  // canonical variable order
    for (size_t i = 0; i < out->size(); ++i) {
      std::string s;
      for (const std::string& var : vars) {
        s += var + "=" +
             out->binding(*op->schema().SlotOf(var), i).AsScalar().ToString() +
             ";";
      }
      rendered.push_back(s);
    }
    std::sort(rendered.begin(), rendered.end());
    return rendered;
  };

  HashJoin ab(MakeScanPtr({"k", "l"}, left_rows),
              MakeScanPtr({"k", "r"}, right_rows));
  HashJoin ba(MakeScanPtr({"k", "r"}, right_rows),
              MakeScanPtr({"k", "l"}, left_rows));
  EXPECT_EQ(drain_sorted(&ab), drain_sorted(&ba));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinCommutativity, ::testing::Range(1, 8));

}  // namespace
}  // namespace algebra
}  // namespace nimble
