#include <gtest/gtest.h>

#include "core/fragmenter.h"
#include "core/sql_generator.h"
#include "xmlql/parser.h"

namespace nimble {
namespace core {
namespace {

xmlql::Query MustParse(const std::string& text) {
  Result<xmlql::Query> q = xmlql::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) std::abort();
  return std::move(*q);
}

connector::SourceCapabilities SqlCaps() {
  connector::SourceCapabilities caps;
  caps.supports_sql = true;
  caps.supports_predicates = true;
  return caps;
}

// ---- Fragmenter ------------------------------------------------------------------

TEST(FragmenterTest, SplitsByPattern) {
  xmlql::Query q = MustParse(R"(
    WHERE <a><r><x>$x</x></r></a> IN "s1:a",
          <b><r><y>$y</y></r></b> IN "s2:b",
          $x = 1, $y = 2, $x = $y
    CONSTRUCT <o>$x</o>
  )");
  Fragmentation f = FragmentQuery(q);
  ASSERT_EQ(f.fragments.size(), 2u);
  // $x = 1 is local to fragment 0, $y = 2 to fragment 1, $x = $y crosses.
  EXPECT_EQ(f.fragments[0].local_conditions.size(), 1u);
  EXPECT_EQ(f.fragments[1].local_conditions.size(), 1u);
  ASSERT_EQ(f.cross_conditions.size(), 1u);
  EXPECT_EQ(f.cross_conditions[0]->rhs.variable, "y");
}

TEST(FragmenterTest, SharedVariableConditionIsLocalWhereCovered) {
  xmlql::Query q = MustParse(R"(
    WHERE <a><r><x>$x</x><z>$z</z></r></a> IN "s1:a",
          $x < $z
    CONSTRUCT <o>$x</o>
  )");
  Fragmentation f = FragmentQuery(q);
  EXPECT_EQ(f.fragments[0].local_conditions.size(), 1u);
  EXPECT_TRUE(f.cross_conditions.empty());
}

// ---- SQL generation ----------------------------------------------------------------

TEST(SqlGeneratorTest, SimpleProjection) {
  xmlql::Query q = MustParse(R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers"
    CONSTRUCT <o>$n</o>
  )");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->sql, "SELECT id, name FROM customers");
  EXPECT_EQ(t->variables, (std::vector<std::string>{"i", "n"}));
}

TEST(SqlGeneratorTest, PushesLocalPredicates) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><id>$i</id><bal>$b</bal></row></c> IN "crm:c",
          $b > 100, $b <= 500, $i != 3
    CONSTRUCT <o>$i</o>
  )");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->pushed_conditions.size(), 3u);
  EXPECT_NE(t->sql.find("(bal > 100)"), std::string::npos);
  EXPECT_NE(t->sql.find("(bal <= 500)"), std::string::npos);
  EXPECT_NE(t->sql.find("(id != 3)"), std::string::npos);
}

TEST(SqlGeneratorTest, PushdownDisabledKeepsPredicatesLocal) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><id>$i</id></row></c> IN "crm:c", $i = 1
    CONSTRUCT <o>$i</o>
  )");
  Fragmentation f = FragmentQuery(q);
  connector::SourceCapabilities caps = SqlCaps();
  caps.supports_predicates = false;
  Result<SqlTranslation> t = TranslateFragmentToSql(f.fragments[0], caps);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->pushed_conditions.empty());
  EXPECT_EQ(t->sql, "SELECT id FROM c");
}

TEST(SqlGeneratorTest, LiteralFieldBecomesEquality) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><status>open</status><id>$i</id></row></c> IN "crm:c"
    CONSTRUCT <o>$i</o>
  )");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->sql.find("(status = 'open')"), std::string::npos);
}

TEST(SqlGeneratorTest, RepeatedVariableBecomesColumnEquality) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><a>$x</a><b>$x</b></row></c> IN "crm:c"
    CONSTRUCT <o>$x</o>
  )");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->sql.find("(a = b)"), std::string::npos);
  // Only one output column for $x.
  EXPECT_EQ(t->variables.size(), 1u);
}

TEST(SqlGeneratorTest, LikePushdown) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><name>$n</name></row></c> IN "crm:c", $n LIKE 'A%'
    CONSTRUCT <o>$n</o>
  )");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->sql.find("LIKE 'A%'"), std::string::npos);
}

TEST(SqlGeneratorTest, IndexAwareness) {
  xmlql::Query q = MustParse(R"(
    WHERE <c><row><id>$i</id></row></c> IN "crm:c", $i = 7
    CONSTRUCT <o>$i</o>
  )");
  Fragmentation f = FragmentQuery(q);
  connector::SourceCapabilities caps = SqlCaps();
  caps.indexed_columns.emplace_back("c", "id");
  Result<SqlTranslation> with_index =
      TranslateFragmentToSql(f.fragments[0], caps);
  ASSERT_TRUE(with_index.ok());
  EXPECT_TRUE(with_index->predicate_hits_index);
  Result<SqlTranslation> without_index =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(without_index.ok());
  EXPECT_FALSE(without_index->predicate_hits_index);
}

TEST(SqlGeneratorTest, StringLiteralsQuoted) {
  // XML-QL double-quoted literal containing a single quote: the generated
  // SQL must re-escape it by doubling.
  xmlql::Query q = MustParse(
      "WHERE <c><row><name>$n</name></row></c> IN \"crm:c\", "
      "$n = \"O'Brien\" CONSTRUCT <o>$n</o>");
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->sql.find("(name = 'O''Brien')"), std::string::npos);
}

// ---- Shapes that must NOT translate -------------------------------------------------

class NotTableShaped : public ::testing::TestWithParam<const char*> {};

TEST_P(NotTableShaped, FallsBackToFetch) {
  xmlql::Query q = MustParse(GetParam());
  Fragmentation f = FragmentQuery(q);
  Result<SqlTranslation> t =
      TranslateFragmentToSql(f.fragments[0], SqlCaps());
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnsupported);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NotTableShaped,
    ::testing::Values(
        // nested field
        "WHERE <c><row><addr><zip>$z</zip></addr></row></c> IN \"s:c\" "
        "CONSTRUCT <o>$z</o>",
        // attribute binding
        "WHERE <c><row id=$i><v>$v</v></row></c> IN \"s:c\" "
        "CONSTRUCT <o>$v</o>",
        // descendant root
        "WHERE <//row><v>$v</v></row> IN \"s:c\" CONSTRUCT <o>$v</o>",
        // ELEMENT_AS
        "WHERE <c><row ELEMENT_AS $e><v>$v</v></row></c> IN \"s:c\" "
        "CONSTRUCT <o>$v</o>",
        // two record-level patterns
        "WHERE <c><row><v>$v</v></row><row><w>$w</w></row></c> IN \"s:c\" "
        "CONSTRUCT <o>$v</o>",
        // wildcard record
        "WHERE <c><*><v>$v</v></*></c> IN \"s:c\" CONSTRUCT <o>$v</o>"));

TEST(SqlGeneratorTest, NonSqlSourceUnsupported) {
  xmlql::Query q = MustParse(
      "WHERE <c><row><v>$v</v></row></c> IN \"s:c\" CONSTRUCT <o>$v</o>");
  Fragmentation f = FragmentQuery(q);
  connector::SourceCapabilities caps;  // no SQL
  EXPECT_EQ(TranslateFragmentToSql(f.fragments[0], caps).status().code(),
            StatusCode::kUnsupported);
}

}  // namespace
}  // namespace core
}  // namespace nimble
