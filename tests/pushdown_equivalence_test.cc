// Pushdown must not change an answer. Every single-pattern condition over a
// relational source runs twice — pushed into the source's SQL and evaluated
// by the mediator's Filter after a plain fetch — and the two runs must agree
// exactly: the same status code and byte-identical XML. The literals are the
// adversarial ones: int64's edges and one past them, -0.0, doubles that need
// 17 digits, LIKE wildcards, a quote, NULL and the booleans. A literal is
// pushed as SQL text, so each must survive that text unchanged — or, for
// NaN and the infinities, which SQL cannot spell, never become SQL text.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "metadata/catalog.h"
#include "relational/database.h"
#include "xml/serializer.h"

namespace nimble {
namespace core {
namespace {

/// Three tables, one per column type, each with a NULL row among values
/// chosen to sit on the edges a literal could be mistranslated across.
class PushdownEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("db");
    Must(db_->Execute("CREATE TABLE ti (id INT, v INT)"));
    Must(db_->Execute(
        "INSERT INTO ti VALUES (1, NULL), (2, 0), (3, 3), (4, -5), "
        "(5, -9223372036854775808), (6, 9223372036854775807)"));
    Must(db_->Execute("CREATE TABLE td (id INT, v DOUBLE)"));
    Must(db_->Execute(
        "INSERT INTO td VALUES (1, NULL), (2, 0.0), (3, -0.0), (4, 3.0), "
        "(5, 0.1), (6, 1e23), (7, 1700000000.123), (8, -2.5)"));
    Must(db_->Execute("CREATE TABLE tt (id INT, v TEXT)"));
    Must(db_->Execute(
        "INSERT INTO tt VALUES (1, NULL), (2, ''), (3, 'a'), (4, 'it''s'), "
        "(5, '%'), (6, 'a_b'), (7, '3'), (8, 'true')"));
    // 1e999 overflows to inf.
    Must(db_->Execute("CREATE TABLE tf (id INT, v DOUBLE)"));
    Must(db_->Execute(
        "INSERT INTO tf VALUES (1, 1.5), (2, 1e999), (3, -1e999), (4, NULL), "
        "(5, 0.0)"));
    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("db", db_.get())));
    // XML text infers "nan", "inf" and "-inf" to non-finite doubles.
    auto xml = std::make_unique<connector::XmlConnector>("x");
    Must(xml->PutDocumentText(
        "keys", "<keys><k>1.5</k><k>nan</k><k>inf</k><k>-inf</k></keys>"));
    Must(catalog_->RegisterSource(std::move(xml)));
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  /// "error <code>" or the serialized answer.
  std::string Outcome(IntegrationEngine& engine, const std::string& query) {
    Result<QueryResult> r = engine.ExecuteText(query);
    if (!r.ok()) {
      return std::string("error ") + StatusCodeName(r.status().code());
    }
    return ToXml(*r->document);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
};

TEST_F(PushdownEquivalenceTest, PushedAndLocalConditionsAgree) {
  const char* kTables[] = {"ti", "td", "tt"};
  const char* kOps[] = {"=", "!=", "<", "<=", ">", ">=", "LIKE"};
  const char* kLiterals[] = {
      "0", "3", "-5", "3.0", "-0.0", "0.1", "100000000000000000000000.0",
      "1700000000.123", "-9223372036854775808", "9223372036854775807",
      "99999999999999999999", "\"\"", "\"a\"", "\"it's\"", "\"%\"", "\"a%\"",
      "\"_\"", "\"3\"", "\"a_b\"", "true", "false", "null"};
  size_t cases = 0;
  size_t answered = 0;
  for (bool verify : {false, true}) {
    EngineOptions options;
    options.verify_plans = verify;
    options.enable_pushdown = true;
    IntegrationEngine pushed(catalog_.get(), options);
    options.enable_pushdown = false;
    IntegrationEngine local(catalog_.get(), options);
    for (const char* table : kTables) {
      for (const char* op : kOps) {
        for (const char* literal : kLiterals) {
          for (bool literal_first : {false, true}) {
            const std::string condition =
                literal_first
                    ? std::string(literal) + " " + op + " $v"
                    : std::string("$v ") + op + " " + literal;
            const std::string query =
                std::string("WHERE <") + table + "><row><id>$i</id><v>$v</v>" +
                "</row></" + table + "> IN \"db:" + table + "\", " +
                condition + " CONSTRUCT <r><i>$i</i><v>$v</v></r> ORDER BY $i";
            const std::string on = Outcome(pushed, query);
            const std::string off = Outcome(local, query);
            ++cases;
            if (on.rfind("error", 0) != 0) ++answered;
            EXPECT_EQ(on, off) << "verify_plans=" << verify << ": " << query;
            EXPECT_EQ(on.find("error Internal"), std::string::npos) << query;
            EXPECT_EQ(off.find("error Internal"), std::string::npos) << query;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3 * 7 * 22 * 2);
  // Most cases answer: only the out-of-range literal, and the typing rules
  // strict analysis applies with verify_plans on, reject a query.
  EXPECT_GT(answered, cases / 2);
}

// NaN and the infinities have no SQL literal. A bind join whose keys hold
// one pushes no IN list for that variable, and a pattern literal holding
// one keeps its fragment on the fetch path; either way every combination
// of bind join and pushdown gives the same answer.
TEST_F(PushdownEquivalenceTest, NonFiniteDoublesNeverBecomeSql) {
  const std::vector<std::string> queries = {
      "WHERE <keys><k>$v</k></keys> IN \"x:keys\", "
      "<tf><row><id>$i</id><v>$v</v></row></tf> IN \"db:tf\" "
      "CONSTRUCT <r><i>$i</i><v>$v</v></r> ORDER BY $i",
      "WHERE <tf><row><id>$i</id><v>inf</v></row></tf> IN \"db:tf\" "
      "CONSTRUCT <r><i>$i</i></r> ORDER BY $i",
      "WHERE <tf><row><id>$i</id><v>-inf</v></row></tf> IN \"db:tf\" "
      "CONSTRUCT <r><i>$i</i></r> ORDER BY $i",
      "WHERE <tf><row><id>$i</id><v>nan</v></row></tf> IN \"db:tf\" "
      "CONSTRUCT <r><i>$i</i></r> ORDER BY $i",
  };
  // The join matches 1.5, inf and -inf; the pattern literals inf and -inf
  // match one row each.
  const std::vector<size_t> expected_rows = {3, 1, 1, 0};
  for (size_t q = 0; q < queries.size(); ++q) {
    std::string reference;
    for (bool verify : {false, true}) {
      for (bool bind_join : {false, true}) {
        for (bool pushdown : {false, true}) {
          EngineOptions options;
          options.verify_plans = verify;
          options.enable_bind_join = bind_join;
          options.enable_pushdown = pushdown;
          IntegrationEngine engine(catalog_.get(), options);
          Result<QueryResult> r = engine.ExecuteText(queries[q]);
          ASSERT_TRUE(r.ok()) << "verify_plans=" << verify
                              << " bind_join=" << bind_join
                              << " pushdown=" << pushdown << ": "
                              << r.status().ToString() << "\n"
                              << queries[q];
          EXPECT_EQ(r->document->children().size(), expected_rows[q])
              << queries[q];
          const std::string got = ToXml(*r->document);
          if (reference.empty()) reference = got;
          EXPECT_EQ(got, reference)
              << "verify_plans=" << verify << " bind_join=" << bind_join
              << " pushdown=" << pushdown << ": " << queries[q];
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace nimble
