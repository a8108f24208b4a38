#include "xmlql/semantic.h"

#include <gtest/gtest.h>

#include <string>

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

Status Strict(const Query& query) {
  AnalysisOptions options;
  options.strict = true;
  return AnalyzeQuery(query, options);
}

// ---- Basic mode (the parser's own validation path) -----------------------

TEST(SemanticTest, ValidQueryPassesBothModes) {
  Query q = MustParse(
      "WHERE <r><a>$a</a><b>$b</b></r> IN \"db:t\", $a > 3 "
      "CONSTRUCT <out><v>$b</v></out>");
  EXPECT_TRUE(AnalyzeQuery(q).ok());
  EXPECT_TRUE(Strict(q).ok());
}

TEST(SemanticTest, UnboundConditionVariableCitesPosition) {
  // The parser runs basic analysis itself; the error must carry the
  // condition's line/column.
  Result<Query> q = ParseQuery(
      "WHERE <r><a>$a</a></r> IN \"db:t\",\n"
      "      $ghost = 1\n"
      "CONSTRUCT <out/>");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("$ghost"), std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("line 2"), std::string::npos)
      << q.status().ToString();
}

TEST(SemanticTest, UnboundConstructVariableCitesPosition) {
  Result<Query> q = ParseQuery(
      "WHERE <r><a>$a</a></r> IN \"db:t\"\n"
      "CONSTRUCT <out>$missing</out>");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("$missing"), std::string::npos);
  EXPECT_NE(q.status().message().find("line 2"), std::string::npos)
      << q.status().ToString();
}

TEST(SemanticTest, UnboundGroupByAndOrderByCitePositions) {
  Result<Query> group = ParseQuery(
      "WHERE <r><a>$a</a></r> IN \"db:t\"\n"
      "CONSTRUCT <out>count($a)</out>\n"
      "GROUP BY $nope");
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(group.status().code(), StatusCode::kParseError);
  EXPECT_NE(group.status().message().find("GROUP BY"), std::string::npos);
  EXPECT_NE(group.status().message().find("line 3"), std::string::npos)
      << group.status().ToString();

  Result<Query> order = ParseQuery(
      "WHERE <r><a>$a</a></r> IN \"db:t\"\n"
      "CONSTRUCT <out>$a</out>\n"
      "ORDER BY $nope");
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().code(), StatusCode::kParseError);
  EXPECT_NE(order.status().message().find("ORDER BY"), std::string::npos);
  EXPECT_NE(order.status().message().find("line 3"), std::string::npos)
      << order.status().ToString();
}

TEST(SemanticTest, AggregationUsesNonGroupVariable) {
  Result<Query> q = ParseQuery(
      "WHERE <r><a>$a</a><b>$b</b></r> IN \"db:t\" "
      "CONSTRUCT <out><k>$b</k><n>count($a)</n></out> GROUP BY $a");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("GROUP BY"), std::string::npos);
}

TEST(SemanticTest, ElementAndScalarBindingMixInOnePatternCitesBoth) {
  Result<Query> q = ParseQuery(
      "WHERE <items><item ELEMENT_AS $e><g>$g</g>\n"
      "      <v>$e</v></item></items> IN \"s:items\"\n"
      "CONSTRUCT <r>$g</r>");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kTypeError);
  EXPECT_NE(q.status().message().find("line 1"), std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("line 2"), std::string::npos)
      << q.status().ToString();
}

TEST(SemanticTest, DuplicateGroupByVariableCitesPosition) {
  Result<Query> q = ParseQuery(
      "WHERE <items><item><g>$g</g><v>$v</v></item></items> IN \"s:items\"\n"
      "CONSTRUCT <r g=$g><n>count($v)</n></r>\n"
      "GROUP BY $g, $g");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("GROUP BY $g"), std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("line 3, column 14"), std::string::npos)
      << q.status().ToString();
}

TEST(SemanticTest, GroupByKeyNamedLikeAnAggregateOutputRejected) {
  // count($v) is carried as $count_v, so the grouping key would collide
  // with it in the aggregate's output row.
  Result<Query> q = ParseQuery(
      "WHERE <items><item><g>$count_v</g><v>$v</v></item></items>"
      " IN \"s:items\"\n"
      "CONSTRUCT <r g=$count_v><n>count($v)</n></r>\n"
      "GROUP BY $count_v");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("count($v)"), std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("line 3"), std::string::npos)
      << q.status().ToString();
  // Another aggregate over the same variable does not collide.
  EXPECT_TRUE(ParseQuery("WHERE <items><item><g>$sum_v</g><v>$v</v></item>"
                         "</items> IN \"s:items\" "
                         "CONSTRUCT <r g=$sum_v><n>count($v)</n></r> "
                         "GROUP BY $sum_v")
                  .ok());
}

TEST(SemanticTest, HandBuiltQueryWithoutPatternsRejected) {
  Query q;
  q.construct = std::make_unique<TemplateNode>();
  Status s = AnalyzeQuery(q);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

// ---- Strict mode (engine verifier path) ----------------------------------

TEST(SemanticTest, DuplicateElementAsBindingRejectedStrictOnly) {
  Query q = MustParse(
      "WHERE <r ELEMENT_AS $e><a>$a</a></r> IN \"db:t\",\n"
      "      <s ELEMENT_AS $e><b>$b</b></s> IN \"db:u\"\n"
      "CONSTRUCT <out>$a</out>");
  EXPECT_TRUE(AnalyzeQuery(q).ok());  // basic mode: parseable
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("ELEMENT_AS"), std::string::npos);
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.ToString();
}

TEST(SemanticTest, ElementAndScalarBindingMixRejected) {
  // Rejected in basic mode too: the parser refuses the query.
  Result<Query> q = ParseQuery(
      "WHERE <r ELEMENT_AS $x><a>$a</a></r> IN \"db:t\",\n"
      "      <s><b>$x</b></s> IN \"db:u\"\n"
      "CONSTRUCT <out>$a</out>");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kTypeError);
  EXPECT_NE(q.status().message().find("$x"), std::string::npos);
}

TEST(SemanticTest, LikeWithNonStringPatternIsTypeError) {
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", $a LIKE 42 "
      "CONSTRUCT <out>$a</out>");
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_NE(s.message().find("LIKE"), std::string::npos);
}

TEST(SemanticTest, TypeIncompatibleLiteralComparison) {
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", 1 < 'abc' "
      "CONSTRUCT <out>$a</out>");
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST(SemanticTest, StaticallyFalseLiteralComparison) {
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", 1 = 2 "
      "CONSTRUCT <out>$a</out>");
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("unsatisfiable"), std::string::npos);
  // Mixed int/double still compares numerically — no false positive.
  Query ok = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", 1 < 2.5 "
      "CONSTRUCT <out>$a</out>");
  EXPECT_TRUE(Strict(ok).ok());
}

TEST(SemanticTest, NullComparisonUnsatisfiableInStrictModeOnly) {
  // The parser (basic mode) accepts `$a = null` — xmlql_parser_test's
  // LiteralTypes depends on it — but the engine's strict pass rejects it:
  // pattern-bound scalars are never null.
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", $a = null "
      "CONSTRUCT <out>$a</out>");
  EXPECT_TRUE(AnalyzeQuery(q).ok());
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("never null"), std::string::npos);
  // != null is trivially true, not unsatisfiable.
  Query ne = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", $a != null "
      "CONSTRUCT <out>$a</out>");
  EXPECT_TRUE(Strict(ne).ok());
}

TEST(SemanticTest, ConflictingEqualityPinsUnsatisfiable) {
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", $a = 1, $a = 2 "
      "CONSTRUCT <out>$a</out>");
  Status s = Strict(q);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("unsatisfiable"), std::string::npos);
  // The same pin twice is merely redundant.
  Query dup = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\", $a = 1, $a = 1 "
      "CONSTRUCT <out>$a</out>");
  EXPECT_TRUE(Strict(dup).ok());
}

// ---- Resolver ------------------------------------------------------------

class OneCollectionResolver : public CollectionResolver {
 public:
  Status Resolve(const SourceRef& ref) const override {
    if (!ref.is_view() && ref.source == "db" && ref.collection == "t") {
      return Status::OK();
    }
    return Status::NotFound("no such collection " + ref.ToString());
  }
};

TEST(SemanticTest, ResolverRejectsDanglingReferenceWithPosition) {
  Query q = MustParse(
      "WHERE <r><a>$a</a></r> IN \"db:t\",\n"
      "      <s><b>$b</b></s> IN \"db:dropped\"\n"
      "CONSTRUCT <out>$a</out>");
  OneCollectionResolver resolver;
  AnalysisOptions options;
  options.resolver = &resolver;
  Status s = AnalyzeQuery(q, options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("db:dropped"), std::string::npos);
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s.ToString();
}

TEST(SemanticTest, ProgramAnalysisLabelsUnionBranch) {
  Result<Program> p = ParseProgram(
      "WHERE <r><a>$a</a></r> IN \"db:t\" CONSTRUCT <out>$a</out> "
      "UNION "
      "WHERE <r><b>$b</b></r> IN \"db:t\", $b = null "
      "CONSTRUCT <out>$b</out>");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  AnalysisOptions options;
  options.strict = true;
  Status s = AnalyzeProgram(*p, options);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("UNION branch 2"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace xmlql
}  // namespace nimble
