// Edge-case coverage for the relational substrate beyond the main suite:
// expression corner cases, error paths, DDL details, and executor
// interactions that the mediator relies on.

#include <gtest/gtest.h>

#include "relational/database.h"
#include "relational/sql_parser.h"

namespace nimble {
namespace relational {
namespace {

class RelationalEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE t (a INT, b DOUBLE, s TEXT, f BOOL)");
    Exec("INSERT INTO t VALUES (1, 1.5, 'x', TRUE), (2, -2.5, 'y', FALSE), "
         "(3, 0.0, '', TRUE)");
  }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }
  Status ExecError(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.ok() ? Status::OK() : r.status();
  }

  Database db_{"edge"};
};

// ---- Expressions ---------------------------------------------------------------

TEST_F(RelationalEdgeTest, ArithmeticMixesIntAndDouble) {
  ResultSet rs = Exec("SELECT a + b, a * 2, a - b FROM t WHERE a = 1");
  EXPECT_EQ(rs.rows[0][0], Value::Double(2.5));
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));
  EXPECT_EQ(rs.rows[0][2], Value::Double(-0.5));
}

TEST_F(RelationalEdgeTest, IntegerModuloAndDivision) {
  Exec("CREATE TABLE n (x INT)");
  Exec("INSERT INTO n VALUES (7)");
  ResultSet rs = Exec("SELECT x % 3, x / 2 FROM n");
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  // '/' always produces a double (avoids silent truncation surprises).
  EXPECT_EQ(rs.rows[0][1], Value::Double(3.5));
}

TEST_F(RelationalEdgeTest, DivisionByZeroIsAnError) {
  EXPECT_EQ(ExecError("SELECT a / 0 FROM t").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecError("SELECT a % 0 FROM t WHERE a = 1").code(),
            StatusCode::kInvalidArgument);
  // A zero divisor is an error for '%' over doubles too, never NaN.
  for (const char* sql : {"SELECT 5.5 % 0 FROM t WHERE a = 1",
                          "SELECT 5.5 % 0.0 FROM t WHERE a = 1",
                          "SELECT a % 0.0 FROM t WHERE a = 1",
                          "SELECT b % 0 FROM t WHERE a = 1"}) {
    Status s = ExecError(sql);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(s.message().find("modulo by zero"), std::string::npos)
        << sql << ": " << s.ToString();
  }
  EXPECT_EQ(Exec("SELECT 5.5 % 2 FROM t WHERE a = 1").rows[0][0],
            Value::Double(1.5));
}

TEST_F(RelationalEdgeTest, StringConcatenationViaPlus) {
  ResultSet rs = Exec("SELECT s + '!' FROM t WHERE a = 1");
  EXPECT_EQ(rs.rows[0][0], Value::String("x!"));
  // Number + string concatenates too (string side wins).
  rs = Exec("SELECT a + s FROM t WHERE a = 1");
  EXPECT_EQ(rs.rows[0][0], Value::String("1x"));
}

TEST_F(RelationalEdgeTest, UnaryMinusAndNot) {
  ResultSet rs = Exec("SELECT -a, -b, NOT f FROM t WHERE a = 2");
  EXPECT_EQ(rs.rows[0][0], Value::Int(-2));
  EXPECT_EQ(rs.rows[0][1], Value::Double(2.5));
  EXPECT_EQ(rs.rows[0][2], Value::Bool(true));
}

TEST_F(RelationalEdgeTest, BooleanColumnInWhere) {
  EXPECT_EQ(Exec("SELECT a FROM t WHERE f = TRUE").rows.size(), 2u);
  EXPECT_EQ(Exec("SELECT a FROM t WHERE NOT f").rows.size(), 1u);
}

TEST_F(RelationalEdgeTest, NullPropagationInArithmetic) {
  Exec("INSERT INTO t (a) VALUES (9)");
  ResultSet rs = Exec("SELECT a + b, s + '!' FROM t WHERE a = 9");
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(RelationalEdgeTest, ComparisonPrecedenceWithLogic) {
  // AND binds tighter than OR.
  ResultSet rs =
      Exec("SELECT a FROM t WHERE a = 1 OR a = 2 AND b < 0 ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 2u);  // 1 (lhs of OR) and 2 (both AND legs)
}

TEST_F(RelationalEdgeTest, ScalarFunctionsOnNull) {
  Exec("INSERT INTO t (a) VALUES (10)");
  ResultSet rs = Exec("SELECT UPPER(s), LENGTH(s), ABS(b) FROM t WHERE a = 10");
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_TRUE(rs.rows[0][2].is_null());
}

// ---- Aggregation edges ------------------------------------------------------------

TEST_F(RelationalEdgeTest, GroupByExpression) {
  ResultSet rs = Exec(
      "SELECT a % 2, COUNT(*) AS n FROM t GROUP BY a % 2 ORDER BY n DESC");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));  // odd a: 1, 3
}

TEST_F(RelationalEdgeTest, HavingWithoutAlias) {
  ResultSet rs = Exec(
      "SELECT f, SUM(b) AS total FROM t GROUP BY f HAVING SUM(b) > 0");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Bool(true));
}

TEST_F(RelationalEdgeTest, SumOfIntsStaysInt) {
  Exec("CREATE TABLE i (x INT)");
  Exec("INSERT INTO i VALUES (1), (2), (3)");
  ResultSet rs = Exec("SELECT SUM(x) FROM i");
  EXPECT_EQ(rs.rows[0][0], Value::Int(6));
  EXPECT_TRUE(rs.rows[0][0].is_int());
  // Sums beyond 2^53 stay exact (a double would round 2^53 + 1 away).
  Exec("INSERT INTO i VALUES (9007199254740993)");
  rs = Exec("SELECT SUM(x) FROM i");
  ASSERT_TRUE(rs.rows[0][0].is_int());
  EXPECT_EQ(rs.rows[0][0].AsInt(), 9007199254740999);
  // One double input, or int64 overflow, falls back to Double.
  rs = Exec("SELECT SUM(b) FROM t");
  EXPECT_TRUE(rs.rows[0][0].is_double());
  Exec("INSERT INTO i VALUES (9223372036854775807)");
  rs = Exec("SELECT SUM(x) FROM i");
  ASSERT_TRUE(rs.rows[0][0].is_double());
  EXPECT_EQ(rs.rows[0][0].AsDouble(), 9223372036854775807.0 +
                                          9007199254740999.0);
}

// Rule 2: a SUM/AVG argument must be numeric or numeric text.
TEST_F(RelationalEdgeTest, SumOfNonNumericTextIsATypeError) {
  EXPECT_EQ(ExecError("SELECT SUM(s) FROM t").code(), StatusCode::kTypeError);
  EXPECT_EQ(ExecError("SELECT AVG(s) FROM t WHERE a = 1").code(),
            StatusCode::kTypeError);
  // Numeric text counts as a number, and makes the sum a Double.
  Exec("CREATE TABLE txt (n TEXT)");
  Exec("INSERT INTO txt VALUES ('2'), ('3'), (NULL)");
  ResultSet rs = Exec("SELECT SUM(n), AVG(n), COUNT(n) FROM txt");
  EXPECT_TRUE(rs.rows[0][0].is_double());
  EXPECT_EQ(rs.rows[0][0], Value::Double(5.0));
  EXPECT_EQ(rs.rows[0][1], Value::Double(2.5));
  EXPECT_EQ(rs.rows[0][2], Value::Int(2));
}

// ---- Integer overflow ---------------------------------------------------------

// SQL text is untrusted: int64 arithmetic that would overflow is an error,
// not a wrapped value or a SIGFPE.
TEST_F(RelationalEdgeTest, IntegerOverflowIsAnError) {
  for (const char* sql : {
           "SELECT (0 - 9223372036854775807 - 1) % -1 FROM t WHERE a = 1",
           "SELECT 9223372036854775807 + 1 FROM t WHERE a = 1",
           "SELECT (0 - 9223372036854775807) - 2 FROM t WHERE a = 1",
           "SELECT 4611686018427387904 * 2 FROM t WHERE a = 1",
           "SELECT -(0 - 9223372036854775807 - 1) FROM t WHERE a = 1",
           "SELECT ABS(0 - 9223372036854775807 - 1) FROM t WHERE a = 1",
       }) {
    Status s = ExecError(sql);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(s.message().find("integer overflow"), std::string::npos)
        << sql << ": " << s.ToString();
  }
  // The edges themselves still compute.
  ResultSet rs = Exec(
      "SELECT 9223372036854775807 + 0, (0 - 9223372036854775807 - 1) % 1, "
      "(0 - 9223372036854775807 - 1) / -1 FROM t WHERE a = 1");
  EXPECT_EQ(rs.rows[0][0].AsInt(), 9223372036854775807);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 0);
  EXPECT_TRUE(rs.rows[0][2].is_double());  // '/' is always a double
  EXPECT_EQ(ExecError("UPDATE t SET a = a * 9223372036854775807 WHERE a = 2")
                .code(),
            StatusCode::kInvalidArgument);
}

// A LIMIT stops pulling rows once it has enough: LIMIT 0 evaluates none, so
// a row-level error past the limit is never raised.
TEST_F(RelationalEdgeTest, LimitZeroEvaluatesNoRows) {
  EXPECT_EQ(Exec("SELECT a / 0 FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(ExecError("SELECT a / 0 FROM t LIMIT 1").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RelationalEdgeTest, MinMaxOnStrings) {
  ResultSet rs = Exec("SELECT MIN(s), MAX(s) FROM t WHERE s != ''");
  EXPECT_EQ(rs.rows[0][0], Value::String("x"));
  EXPECT_EQ(rs.rows[0][1], Value::String("y"));
}

// ---- DDL / DML edges ---------------------------------------------------------------

TEST_F(RelationalEdgeTest, VarcharSizeAccepted) {
  Exec("CREATE TABLE v (name VARCHAR(32), note TEXT)");
  Exec("INSERT INTO v VALUES ('hi', 'there')");
  EXPECT_EQ(Exec("SELECT * FROM v").rows.size(), 1u);
}

TEST_F(RelationalEdgeTest, NotNullEnforced) {
  Exec("CREATE TABLE r (k INT NOT NULL, v TEXT)");
  EXPECT_EQ(ExecError("INSERT INTO r VALUES (NULL, 'x')").code(),
            StatusCode::kInvalidArgument);
  Exec("INSERT INTO r (k) VALUES (1)");  // v nullable
}

TEST_F(RelationalEdgeTest, DuplicateTableAndIndexRejected) {
  EXPECT_EQ(ExecError("CREATE TABLE t (z INT)").code(),
            StatusCode::kAlreadyExists);
  Exec("CREATE INDEX idx_a ON t (a)");
  EXPECT_EQ(ExecError("CREATE INDEX idx_a ON t (a)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ExecError("CREATE INDEX idx_z ON t (zzz)").code(),
            StatusCode::kNotFound);
}

TEST_F(RelationalEdgeTest, InsertColumnSubsetFillsNulls) {
  Exec("INSERT INTO t (s, a) VALUES ('partial', 42)");
  ResultSet rs = Exec("SELECT a, b, s, f FROM t WHERE a = 42");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_TRUE(rs.rows[0][3].is_null());
  EXPECT_EQ(rs.rows[0][2], Value::String("partial"));
}

TEST_F(RelationalEdgeTest, UpdateTypeErrorSurfaces) {
  EXPECT_EQ(ExecError("UPDATE t SET a = 'oops'").code(),
            StatusCode::kTypeError);
}

TEST_F(RelationalEdgeTest, DeleteWithErrorPredicate) {
  EXPECT_EQ(ExecError("DELETE FROM t WHERE zzz = 1").code(),
            StatusCode::kNotFound);
  // Nothing deleted by the failed statement.
  EXPECT_EQ(Exec("SELECT * FROM t").rows.size(), 3u);
}

TEST_F(RelationalEdgeTest, NegativeLiteralsInInsert) {
  Exec("CREATE TABLE neg (x INT, y DOUBLE)");
  Exec("INSERT INTO neg VALUES (-5, -2.75)");
  ResultSet rs = Exec("SELECT x, y FROM neg");
  EXPECT_EQ(rs.rows[0][0], Value::Int(-5));
  EXPECT_EQ(rs.rows[0][1], Value::Double(-2.75));
}

TEST_F(RelationalEdgeTest, QuotedStringEscapes) {
  Exec("INSERT INTO t (a, s) VALUES (77, 'O''Brien')");
  ResultSet rs = Exec("SELECT s FROM t WHERE a = 77");
  EXPECT_EQ(rs.rows[0][0], Value::String("O'Brien"));
}

TEST_F(RelationalEdgeTest, CommentsSkipped) {
  ResultSet rs = Exec(
      "SELECT a FROM t -- trailing comment\n WHERE a = 1 -- another\n");
  EXPECT_EQ(rs.rows.size(), 1u);
}

// ---- DISTINCT / ORDER interplay -----------------------------------------------------

TEST_F(RelationalEdgeTest, DistinctThenOrder) {
  Exec("INSERT INTO t VALUES (1, 1.5, 'x', TRUE)");  // duplicate row of a=1
  ResultSet rs = Exec("SELECT DISTINCT a, s FROM t ORDER BY a DESC");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(RelationalEdgeTest, OrderByRequiresProjectedKey) {
  EXPECT_EQ(ExecError("SELECT a FROM t ORDER BY b").code(),
            StatusCode::kInvalidArgument);
}

// ---- Index range probes --------------------------------------------------------------

TEST_F(RelationalEdgeTest, InvertedIndexRangeIsEmpty) {
  // Found by the XML-QL grammar fuzzer: contradictory bounds on an indexed
  // column (lo > hi) used to walk the index past its end and never return.
  Exec("CREATE TABLE k (a INT PRIMARY KEY)");
  Exec("INSERT INTO k VALUES (1), (2), (3)");
  EXPECT_EQ(Exec("SELECT a FROM k WHERE a <= 0 AND a >= 5").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT a FROM k WHERE a > 2 AND a < 2").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT a FROM k WHERE a >= 2 AND a < 2").rows.size(), 0u);
  // Degenerate-but-valid single-point range still answers.
  EXPECT_EQ(Exec("SELECT a FROM k WHERE a >= 2 AND a <= 2").rows.size(), 1u);
}

// ---- Stats fidelity ------------------------------------------------------------------

TEST_F(RelationalEdgeTest, RowsReturnedMatchesResult) {
  ResultSet rs = Exec("SELECT a FROM t WHERE a > 1");
  EXPECT_EQ(rs.stats.rows_returned, rs.rows.size());
  EXPECT_EQ(rs.stats.rows_scanned, 3u);
}

}  // namespace
}  // namespace relational
}  // namespace nimble
