#include <gtest/gtest.h>

#include <limits>

#include "xmlql/parser.h"

namespace nimble {
namespace xmlql {
namespace {

Query MustParse(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) std::abort();
  return std::move(*q);
}

TEST(XmlQlParserTest, MinimalQuery) {
  Query q = MustParse(R"(
    WHERE <db><item><v>$x</v></item></db> IN "src:db"
    CONSTRUCT <out>$x</out>
  )");
  ASSERT_EQ(q.patterns.size(), 1u);
  EXPECT_EQ(q.patterns[0].source.source, "src");
  EXPECT_EQ(q.patterns[0].source.collection, "db");
  EXPECT_EQ(q.patterns[0].root.tag, "db");
  ASSERT_EQ(q.patterns[0].root.children.size(), 1u);
  EXPECT_EQ(q.patterns[0].root.children[0]->tag, "item");
  EXPECT_EQ(q.patterns[0].root.children[0]->children[0]->content_variable,
            "x");
  EXPECT_TRUE(q.conditions.empty());
  EXPECT_EQ(q.construct->tag, "out");
}

TEST(XmlQlParserTest, ViewReferenceHasNoSource) {
  Query q = MustParse(R"(
    WHERE <results><r><v>$x</v></r></results> IN my_view
    CONSTRUCT <out>$x</out>
  )");
  EXPECT_TRUE(q.patterns[0].source.is_view());
  EXPECT_EQ(q.patterns[0].source.collection, "my_view");
}

TEST(XmlQlParserTest, AttributePatterns) {
  Query q = MustParse(R"(
    WHERE <db><item sku=$k kind="tool"><v>$x</v></item></db> IN "s:db"
    CONSTRUCT <out sku=$k>$x</out>
  )");
  const ElementPattern& item = *q.patterns[0].root.children[0];
  ASSERT_EQ(item.attributes.size(), 2u);
  EXPECT_TRUE(item.attributes[0].is_variable);
  EXPECT_EQ(item.attributes[0].variable, "k");
  EXPECT_FALSE(item.attributes[1].is_variable);
  EXPECT_EQ(item.attributes[1].literal, Value::String("tool"));
  ASSERT_EQ(q.construct->attributes.size(), 1u);
  EXPECT_TRUE(q.construct->attributes[0].is_variable);
}

TEST(XmlQlParserTest, ConditionsAllOperators) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a><b>$b</b></i></d> IN "s:d",
          $a = 1, $a != 2, $a < 3, $a <= 4, $a > 0, $a >= 1,
          $b LIKE 'x%', $a = $b
    CONSTRUCT <o>$a</o>
  )");
  ASSERT_EQ(q.conditions.size(), 8u);
  EXPECT_EQ(q.conditions[0].op, Condition::Op::kEq);
  EXPECT_EQ(q.conditions[1].op, Condition::Op::kNe);
  EXPECT_EQ(q.conditions[2].op, Condition::Op::kLt);
  EXPECT_EQ(q.conditions[3].op, Condition::Op::kLe);
  EXPECT_EQ(q.conditions[4].op, Condition::Op::kGt);
  EXPECT_EQ(q.conditions[5].op, Condition::Op::kGe);
  EXPECT_EQ(q.conditions[6].op, Condition::Op::kLike);
  EXPECT_TRUE(q.conditions[7].rhs.is_variable);
}

TEST(XmlQlParserTest, LiteralTypes) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d",
          $a = 1, $a = 2.5, $a = -3, $a = 'str', $a = true, $a = null
    CONSTRUCT <o>$a</o>
  )");
  EXPECT_EQ(q.conditions[0].rhs.literal, Value::Int(1));
  EXPECT_EQ(q.conditions[1].rhs.literal, Value::Double(2.5));
  EXPECT_EQ(q.conditions[2].rhs.literal, Value::Int(-3));
  EXPECT_EQ(q.conditions[3].rhs.literal, Value::String("str"));
  EXPECT_EQ(q.conditions[4].rhs.literal, Value::Bool(true));
  EXPECT_TRUE(q.conditions[5].rhs.literal.is_null());
}

// An integer literal must fit int64: INT64_MIN parses exactly, anything
// beyond is a parse error instead of a value strtoll clamped.
TEST(XmlQlParserTest, IntegerLiteralsMustFitInt64) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d",
          $a = -9223372036854775808, $a = 9223372036854775807
    CONSTRUCT <o>$a</o>
  )");
  EXPECT_EQ(q.conditions[0].rhs.literal,
            Value::Int(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(q.conditions[1].rhs.literal,
            Value::Int(std::numeric_limits<int64_t>::max()));
  for (const char* literal : {"9223372036854775808", "-9223372036854775809",
                              "99999999999999999999"}) {
    Result<Query> bad = ParseQuery(
        std::string("WHERE <d><i><a>$a</a></i></d> IN \"s:d\", $a = ") +
        literal + " CONSTRUCT <o>$a</o>");
    ASSERT_FALSE(bad.ok()) << literal;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << literal;
    EXPECT_NE(bad.status().message().find("out of range"), std::string::npos)
        << bad.status().ToString();
  }
  Result<Query> limit = ParseQuery(
      "WHERE <d><i><a>$a</a></i></d> IN \"s:d\" CONSTRUCT <o>$a</o> "
      "LIMIT 99999999999999999999");
  ASSERT_FALSE(limit.ok());
  EXPECT_EQ(limit.status().code(), StatusCode::kParseError);
}

TEST(XmlQlParserTest, DescendantAndWildcardAndElementAs) {
  Query q = MustParse(R"(
    WHERE <//book ELEMENT_AS $b><*><t>$t</t></*></book> IN "s:lib"
    CONSTRUCT <o>$b</o>
  )");
  EXPECT_TRUE(q.patterns[0].root.descendant);
  EXPECT_EQ(q.patterns[0].root.element_variable, "b");
  EXPECT_EQ(q.patterns[0].root.children[0]->tag, "*");
}

TEST(XmlQlParserTest, ContentLiteralConstraint) {
  Query q = MustParse(R"(
    WHERE <d><i><status>open</status><v>$v</v></i></d> IN "s:d"
    CONSTRUCT <o>$v</o>
  )");
  const ElementPattern& status = *q.patterns[0].root.children[0]->children[0];
  ASSERT_TRUE(status.content_literal.has_value());
  EXPECT_EQ(*status.content_literal, Value::String("open"));
}

TEST(XmlQlParserTest, OrderByAndLimit) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a><b>$b</b></i></d> IN "s:d"
    CONSTRUCT <o>$a</o>
    ORDER BY $a DESC, $b
    LIMIT 10
  )");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].descending);
  EXPECT_FALSE(q.order_by[1].descending);
  EXPECT_EQ(q.limit, 10);
}

TEST(XmlQlParserTest, TemplateNesting) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d"
    CONSTRUCT <r><nested deep="yes"><v>$a</v>literal text</nested></r>
  )");
  ASSERT_EQ(q.construct->children.size(), 1u);
  const TemplateNode& nested = *q.construct->children[0];
  EXPECT_EQ(nested.tag, "nested");
  ASSERT_EQ(nested.children.size(), 2u);
  EXPECT_EQ(nested.children[0]->tag, "v");
  EXPECT_EQ(nested.children[1]->kind, TemplateNode::Kind::kText);
  EXPECT_EQ(nested.children[1]->text, Value::String("literal text"));
}

TEST(XmlQlParserTest, UnionProgram) {
  Result<Program> p = ParseProgram(R"(
    WHERE <a><i><v>$v</v></i></a> IN "s:a" CONSTRUCT <o>$v</o>
    UNION
    WHERE <b><i><v>$v</v></i></b> IN "s:b" CONSTRUCT <o>$v</o>
    UNION
    WHERE <c><i><v>$v</v></i></c> IN "s:c" CONSTRUCT <o>$v</o>
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->branches.size(), 3u);
}

TEST(XmlQlParserTest, ParseQueryRejectsUnion) {
  Result<Query> q = ParseQuery(
      "WHERE <a><i><v>$v</v></i></a> IN \"s:a\" CONSTRUCT <o>$v</o> "
      "UNION WHERE <b><i><v>$v</v></i></b> IN \"s:b\" CONSTRUCT <o>$v</o>");
  EXPECT_FALSE(q.ok());
}

TEST(XmlQlParserTest, BoundVariablesDeduplicated) {
  Query q = MustParse(R"(
    WHERE <a><i><v>$v</v><w>$w</w></i></a> IN "s:a",
          <b><j><v>$v</v></j></b> IN "s:b"
    CONSTRUCT <o>$v</o>
  )");
  EXPECT_EQ(q.BoundVariables(), (std::vector<std::string>{"v", "w"}));
}

TEST(XmlQlParserTest, GroupByAndAggregates) {
  Query q = MustParse(R"(
    WHERE <d><i><city>$c</city><amount>$a</amount></i></d> IN "s:d"
    CONSTRUCT <stats city=$c><n>count($a)</n><total>sum($a)</total>
              <mean>avg($a)</mean><lo>min($a)</lo><hi>max($a)</hi></stats>
    GROUP BY $c
    ORDER BY $c
  )");
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"c"}));
  EXPECT_TRUE(q.IsAggregation());
  std::vector<std::pair<AggregateFn, std::string>> calls;
  q.construct->CollectAggregates(&calls);
  ASSERT_EQ(calls.size(), 5u);
  EXPECT_EQ(calls[0].first, AggregateFn::kCount);
  EXPECT_EQ(calls[4].first, AggregateFn::kMax);
}

TEST(XmlQlParserTest, GlobalAggregationWithoutGroupBy) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d"
    CONSTRUCT <total>sum($a)</total>
  )");
  EXPECT_TRUE(q.IsAggregation());
  EXPECT_TRUE(q.group_by.empty());
}

TEST(XmlQlParserTest, NonAggregationHasNoAggregates) {
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d" CONSTRUCT <o>$a</o>
  )");
  EXPECT_FALSE(q.IsAggregation());
  EXPECT_FALSE(q.construct->ContainsAggregate());
}

TEST(XmlQlParserTest, AggregateLikeTextIsNotMisparsed) {
  // "count(...)" without a variable stays literal text.
  Query q = MustParse(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d"
    CONSTRUCT <o>count(items)</o>
  )");
  EXPECT_FALSE(q.IsAggregation());
}

TEST(XmlQlParserTest, AggregationErrors) {
  // Ungrouped plain variable in an aggregation.
  EXPECT_FALSE(ParseQuery(R"(
    WHERE <d><i><a>$a</a><b>$b</b></i></d> IN "s:d"
    CONSTRUCT <o>$b<n>count($a)</n></o>
  )").ok());
  // ORDER BY non-group variable under aggregation.
  EXPECT_FALSE(ParseQuery(R"(
    WHERE <d><i><a>$a</a><b>$b</b></i></d> IN "s:d"
    CONSTRUCT <o b=$b><n>count($a)</n></o>
    GROUP BY $b
    ORDER BY $a
  )").ok());
  // GROUP BY unbound variable.
  EXPECT_FALSE(ParseQuery(R"(
    WHERE <d><i><a>$a</a></i></d> IN "s:d"
    CONSTRUCT <n>count($a)</n>
    GROUP BY $zz
  )").ok());
}

// ---- Error cases -------------------------------------------------------------

class XmlQlParseError : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlQlParseError, Rejected) {
  Result<Query> q = ParseQuery(GetParam());
  EXPECT_FALSE(q.ok()) << "should reject: " << GetParam();
  if (!q.ok()) {
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XmlQlParseError,
    ::testing::Values(
        "",                                                    // empty
        "CONSTRUCT <o/>",                                      // no WHERE
        "WHERE CONSTRUCT <o/>",                                // no pattern
        "WHERE <a><v>$v</v></a> CONSTRUCT <o>$v</o>",          // missing IN
        "WHERE <a><v>$v</v></a> IN \"s:\" CONSTRUCT <o/>",     // bad ref
        "WHERE <a><v>$v</v></b> IN \"s:a\" CONSTRUCT <o/>",    // mismatch tag
        "WHERE <a><v>$v</v></a> IN \"s:a\"",                   // no CONSTRUCT
        "WHERE <a><v>$v</v></a> IN \"s:a\" CONSTRUCT <o>$zz</o>",  // unbound
        "WHERE <a><v>$v</v></a> IN \"s:a\", $q = 1 CONSTRUCT <o>$v</o>",
        "WHERE <a><v>$v</v></a> IN \"s:a\" CONSTRUCT <o>$v</o> ORDER BY $zz",
        "WHERE <a><v>$v</v></a> IN \"s:a\" CONSTRUCT <o>$v</o> LIMIT x",
        "WHERE <a><v>$v</v></a> IN \"s:a\" CONSTRUCT <o>$v</o> extra"));

}  // namespace
}  // namespace xmlql
}  // namespace nimble
