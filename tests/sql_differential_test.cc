// SQL-vs-SQL differential: generated statements run through the planner
// (relational::Database) and through the row-at-a-time interpreter it
// replaced (tests/sql_oracle.h) on twin databases, and must agree exactly —
// column names, rows in order, value types and double bits, ExecStats, and
// error versus success. Seeded through common/rng; knobs NIMBLE_FUZZ_SEED
// and NIMBLE_FUZZ_ITERS (default 3000 statements).
//
// The fixture is adversarial: NULLs in every column, doubles that need 17
// digits, -0.0 next to 0.0, int/double twins (3 and 3.0), strings holding
// ', % and _, empty strings and duplicate keys, with an index on each
// table. Integer literals stay small, because the oracle keeps its int64
// wraparound. The grammar leaves out the cases where the planner changed
// the answer on purpose (DESIGN.md §2k): names that do not resolve (rule 4)
// and bare columns in aggregate queries (rule 5) are generated separately
// and asserted against the new rule; SUM/AVG arguments are numeric (rule 2)
// and cannot fail, so HAVING never hides an error the planner raises; and
// DML predicates cannot fail, since DML now evaluates WHERE only on index
// candidates.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query_generator.h"
#include "relational/database.h"
#include "relational/sql_parser.h"
#include "sql_oracle.h"

namespace nimble {
namespace relational {
namespace {

using core::testgen::FuzzIters;
using core::testgen::FuzzSeed;

const std::vector<Value>& IntPool() {
  static const std::vector<Value> pool = {
      Value::Int(-2), Value::Int(-1), Value::Int(0), Value::Int(1),
      Value::Int(2),  Value::Int(3),  Value::Int(7), Value::Null()};
  return pool;
}

const std::vector<Value>& DoublePool() {
  static const std::vector<Value> pool = {
      Value::Double(0.1 + 0.2),  Value::Double(-0.0),
      Value::Double(0.0),        Value::Double(1.5),
      Value::Double(-2.5),       Value::Double(3.0),
      Value::Double(123456789.123456789), Value::Double(1e-7),
      Value::Null()};
  return pool;
}

const std::vector<Value>& StringPool() {
  static const std::vector<Value> pool = {
      Value::String(""),    Value::String("a'b"), Value::String("50%"),
      Value::String("x_y"), Value::String("abc"), Value::String("ABC"),
      Value::String("_"),   Value::String("%"),   Value::Null()};
  return pool;
}

/// `rows` values that hold every value of `pool` (NULL included) at least
/// once, the rest repeats, in a seeded order.
std::vector<Value> Column(Rng& rng, const std::vector<Value>& pool,
                          size_t rows) {
  std::vector<Value> column;
  for (size_t i = 0; i < rows; ++i) column.push_back(pool[i % pool.size()]);
  for (size_t i = rows - 1; i > 0; --i) {
    std::swap(column[i], column[rng.Index(i + 1)]);
  }
  return column;
}

/// Builds the fixture into `db`: t(id, a, b, s, f) and u(k, x, w), indexed
/// on t.a, t.b, u.k and u.w.
void BuildFixture(uint64_t seed, Database* db) {
  Rng rng(seed);
  for (const char* sql :
       {"CREATE TABLE t (id INT, a INT, b DOUBLE, s TEXT, f BOOL)",
        "CREATE INDEX t_a ON t (a)", "CREATE INDEX t_b ON t (b)",
        "CREATE TABLE u (k INT, x DOUBLE, w TEXT)",
        "CREATE INDEX u_k ON u (k)", "CREATE INDEX u_w ON u (w)"}) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  static const std::vector<Value> bools = {Value::Bool(true),
                                           Value::Bool(false), Value::Null()};
  std::vector<Value> ids;
  for (int64_t i = 0; i < 27; ++i) ids.push_back(Value::Int(i));
  ids.push_back(Value::Null());
  const std::vector<std::vector<Value>> t = {
      Column(rng, ids, 28), Column(rng, IntPool(), 28),
      Column(rng, DoublePool(), 28), Column(rng, StringPool(), 28),
      Column(rng, bools, 28)};
  for (size_t r = 0; r < 28; ++r) {
    ASSERT_TRUE(db->GetTable("t")
                    ->Insert({t[0][r], t[1][r], t[2][r], t[3][r], t[4][r]})
                    .ok());
  }
  const std::vector<std::vector<Value>> u = {Column(rng, IntPool(), 18),
                                             Column(rng, DoublePool(), 18),
                                             Column(rng, StringPool(), 18)};
  for (size_t r = 0; r < 18; ++r) {
    ASSERT_TRUE(db->GetTable("u")->Insert({u[0][r], u[1][r], u[2][r]}).ok());
  }
}

struct Col {
  std::string qualifier;
  std::string name;
  char type;  ///< 'i' int, 'd' double, 's' string, 'b' bool.
};

std::vector<Col> TableCols(const std::string& table, const std::string& q) {
  if (table == "t") {
    return {{q, "id", 'i'}, {q, "a", 'i'}, {q, "b", 'd'}, {q, "s", 's'},
            {q, "f", 'b'}};
  }
  return {{q, "k", 'i'}, {q, "x", 'd'}, {q, "w", 's'}};
}

/// Random statements over the fixture. `safe` expressions cannot fail at
/// run time (no division or modulo by a column).
class SqlGen {
 public:
  explicit SqlGen(Rng& rng) : rng_(rng) {}

  /// A SELECT; `mode` 0 = in-grammar, 1 = names an unknown column (rule 4),
  /// 2 = a bare column in an aggregate query (rule 5).
  std::string Select(int mode) {
    std::string from = From();
    const bool aggregate = mode == 2 || rng_.Bernoulli(0.3);
    std::vector<std::string> items, names, keys;
    std::string sql = "SELECT ";
    if (rng_.Bernoulli(0.2)) sql += "DISTINCT ";
    if (aggregate) {
      // Rule 5 checks group by an expression only, so no bare column can
      // match a key.
      for (size_t g = rng_.Index(3); g > 0; --g) {
        keys.push_back(mode == 2 ? "(" + Ref(PickCol("i")) + " % 2)"
                                 : GroupKey());
      }
      for (const std::string& key : keys) {
        if (rng_.Bernoulli(0.7)) items.push_back(key);
      }
      for (size_t n = 1 + rng_.Index(3); n > 0; --n) items.push_back(Agg());
      if (mode == 2) items.push_back(Ref(PickCol("sidb")));
    } else if (mode == 0 && rng_.Bernoulli(0.15)) {
      items.push_back("*");
    } else {
      for (size_t n = 1 + rng_.Index(4); n > 0; --n) items.push_back(Item());
    }
    if (mode == 1) items.push_back(Qual() + "zz");
    for (size_t i = 0; i < items.size(); ++i) {
      const bool alias = items[i] != "*" && rng_.Bernoulli(0.3);
      sql += (i > 0 ? ", " : "") + items[i];
      if (alias) sql += " AS c" + std::to_string(i);
      names.push_back(alias ? "c" + std::to_string(i) : items[i]);
    }
    sql += " FROM " + from;
    if (rng_.Bernoulli(0.7)) sql += " WHERE " + Pred(2, /*safe=*/false);
    if (!keys.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < keys.size(); ++i) sql += (i ? ", " : "") + keys[i];
    }
    if (!keys.empty() && rng_.Bernoulli(0.4)) {
      sql += " HAVING " + Agg() + " " + CmpOp() + " " + Lit('i');
    }
    if (items[0] != "*" && rng_.Bernoulli(0.5)) {
      sql += " ORDER BY ";
      for (size_t n = 1 + rng_.Index(2), i = 0; i < n; ++i) {
        sql += (i ? ", " : "") + names[rng_.Index(names.size())];
        if (rng_.Bernoulli(0.4)) sql += " DESC";
      }
    }
    if (rng_.Bernoulli(0.3)) sql += " LIMIT " + std::to_string(1 + rng_.Index(8));
    return sql;
  }

  std::string Dml() {
    const std::string table = rng_.Bernoulli(0.6) ? "t" : "u";
    cols_ = TableCols(table, table);
    qualify_ = false;
    std::string where =
        rng_.Bernoulli(0.85) ? " WHERE " + Pred(2, /*safe=*/true) : "";
    if (rng_.Bernoulli(0.4)) return "DELETE FROM " + table + where;
    std::string sql = "UPDATE " + table + " SET ";
    const size_t n = 1 + rng_.Index(2);
    for (size_t i = 0; i < n; ++i) {
      const Col& col = cols_[rng_.Index(cols_.size())];
      // A mismatched type is a TypeError on both sides.
      std::string value = col.type == 's'   ? Str(1)
                          : col.type == 'b' ? Pred(1, true)
                                            : Num(1, /*safe=*/true);
      sql += (i ? ", " : "") + col.name + " = " + value;
    }
    return sql + where;
  }

 private:
  std::string From() {
    switch (rng_.Index(5)) {
      case 0:
        cols_ = TableCols("u", "v");
        qualify_ = false;
        return "u AS v";
      case 2:
      case 3: {
        cols_ = TableCols("t", "t");
        for (const Col& c : TableCols("u", "u")) cols_.push_back(c);
        qualify_ = false;
        std::string on = rng_.Bernoulli(0.7)
                             ? "t.a = u.k"
                             : (rng_.Bernoulli(0.5) ? "u.x = t.b" : "t.b < u.x");
        if (rng_.Bernoulli(0.3)) on += " AND " + Pred(1, /*safe=*/true);
        return std::string("t ") + (rng_.Bernoulli(0.5) ? "LEFT " : "") +
               "JOIN u ON " + on;
      }
      case 4: {
        cols_ = TableCols("t", "p");
        for (const Col& c : TableCols("t", "q")) cols_.push_back(c);
        qualify_ = true;
        return std::string("t AS p ") + (rng_.Bernoulli(0.5) ? "LEFT " : "") +
               "JOIN t AS q ON " +
               (rng_.Bernoulli(0.7) ? "p.a = q.a AND p.id < q.id"
                                    : "p.b > q.b");
      }
      default:
        cols_ = TableCols("t", "t");
        qualify_ = false;
        return "t";
    }
  }

  std::string Qual() {
    return qualify_ || rng_.Bernoulli(0.3) ? cols_[0].qualifier + "." : "";
  }

  std::string Ref(const Col& c) {
    return (qualify_ || rng_.Bernoulli(0.3) ? c.qualifier + "." : "") + c.name;
  }

  /// A random column whose type is in `types`.
  const Col& PickCol(const std::string& types) {
    std::vector<const Col*> fit;
    for (const Col& c : cols_) {
      if (types.find(c.type) != std::string::npos) fit.push_back(&c);
    }
    return *fit[rng_.Index(fit.size())];
  }

  std::string Lit(char type) {
    if (type == 'i') return std::to_string(rng_.UniformInt(-2, 5));
    if (type == 'd') {
      const Value& v = DoublePool()[rng_.Index(DoublePool().size() - 1)];
      return SqlQuote(v);
    }
    if (type == 'b') return rng_.Bernoulli(0.5) ? "TRUE" : "FALSE";
    return SqlQuote(StringPool()[rng_.Index(StringPool().size() - 1)]);
  }

  std::string CmpOp() {
    static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
    return ops[rng_.Index(6)];
  }

  std::string Num(int depth, bool safe) {
    const size_t pick = depth <= 0 ? rng_.Index(3) : rng_.Index(10);
    switch (pick) {
      case 0:
      case 1:
        return Ref(PickCol("id"));
      case 2:
        return Lit(rng_.Bernoulli(0.6) ? 'i' : 'd');
      case 3:
      case 4: {
        static const char* ops[] = {"+", "-", "*"};
        return "(" + Num(depth - 1, safe) + " " + ops[rng_.Index(3)] + " " +
               Num(depth - 1, safe) + ")";
      }
      case 5:
        return "-(" + Num(depth - 1, safe) + ")";
      case 6:
        return "ABS(" + Num(depth - 1, safe) + ")";
      case 7:
        return "(" + Num(depth - 1, safe) + " / " +
               (safe ? std::to_string(1 + rng_.Index(3)) + ".5"
                     : Ref(PickCol("id"))) +
               ")";
      case 8:
        return "(" + Ref(PickCol("i")) + " % " +
               (safe ? std::to_string(2 + rng_.Index(3))
                     : Ref(PickCol("i"))) +
               ")";
      default:
        return "LENGTH(" + Str(depth - 1) + ")";
    }
  }

  std::string Str(int depth) {
    switch (depth <= 0 ? rng_.Index(2) : rng_.Index(5)) {
      case 0:
        return Ref(PickCol("s"));
      case 1:
        return Lit('s');
      case 2:
        return std::string(rng_.Bernoulli(0.5) ? "UPPER(" : "LOWER(") +
               Str(depth - 1) + ")";
      default:
        return "(" + Str(depth - 1) + " + " +
               (rng_.Bernoulli(0.7) ? Str(depth - 1) : Num(depth - 1, true)) +
               ")";
    }
  }

  std::string Pred(int depth, bool safe) {
    static const char* patterns[] = {"'%'",  "'a%'", "'%b'",  "'_'",
                                     "'x_y'", "''",  "'%''%'", "'50%'"};
    switch (depth <= 0 ? rng_.Index(6) : rng_.Index(10)) {
      case 0:
      case 1:
        return Num(1, safe) + " " + CmpOp() + " " + Num(1, safe);
      case 2:
        return Str(1) + " " + CmpOp() + " " + Str(1);
      case 3:
        return Str(1) + " LIKE " + patterns[rng_.Index(8)];
      case 4: {
        const Col& c = PickCol("idsb");
        return Ref(c) + (rng_.Bernoulli(0.5) ? " IS NULL" : " IS NOT NULL");
      }
      case 5: {
        const Col& c = PickCol("ids");
        std::string in = Ref(c) + " IN (";
        for (size_t n = 1 + rng_.Index(3), i = 0; i < n; ++i) {
          in += (i ? ", " : "") + Lit(c.type);
        }
        return in + ")";
      }
      case 6:
        return "NOT (" + Pred(depth - 1, safe) + ")";
      case 7:
        return cols_[0].name == "id" ? Ref(PickCol("b")) : "TRUE";
      default:
        return "(" + Pred(depth - 1, safe) +
               (rng_.Bernoulli(0.5) ? " AND " : " OR ") +
               Pred(depth - 1, safe) + ")";
    }
  }

  std::string Item() {
    switch (rng_.Index(4)) {
      case 0:
        return Ref(cols_[rng_.Index(cols_.size())]);
      case 1:
        return Num(2, /*safe=*/false);
      case 2:
        return Str(2);
      default:
        return Pred(1, /*safe=*/false);
    }
  }

  std::string GroupKey() {
    switch (rng_.Index(4)) {
      case 0:
        return "(" + Ref(PickCol("i")) + " % 2)";
      case 1:
        return "UPPER(" + Ref(PickCol("s")) + ")";
      default:
        return Ref(PickCol("idsb"));
    }
  }

  std::string Agg() {
    switch (rng_.Index(7)) {
      case 0:
        return "COUNT(*)";
      case 1:
        return "COUNT(" + Ref(cols_[rng_.Index(cols_.size())]) + ")";
      case 2:
        return "SUM(" + Num(1, /*safe=*/true) + ")";
      case 3:
        return "AVG(" + Num(1, /*safe=*/true) + ")";
      case 4:
        return "(SUM(" + Ref(PickCol("idb")) + ") + 1)";
      case 5:
        return "MIN(" + Ref(cols_[rng_.Index(cols_.size())]) + ")";
      default:
        return "MAX(" + Ref(cols_[rng_.Index(cols_.size())]) + ")";
    }
  }

  Rng& rng_;
  std::vector<Col> cols_;
  bool qualify_ = false;
};

/// Same type and the same value, doubles bit for bit.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.is_null() || a.Compare(b) == 0;
}

std::string Render(const Result<ResultSet>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out = std::to_string(r->rows.size()) + " rows:";
  for (const Row& row : r->rows) {
    out += "\n ";
    for (const Value& v : row) {
      out += std::string(" ") + ValueTypeName(v.type()) + ":" + SqlQuote(v);
    }
  }
  return out;
}

/// Empty when the two results agree exactly, else what differs.
std::string Diff(const Result<ResultSet>& want, const Result<ResultSet>& got,
                 bool compare_stats) {
  if (want.ok() != got.ok()) return "error on one side only";
  if (!want.ok()) {
    return want.status().code() == got.status().code() ? ""
                                                        : "error codes differ";
  }
  if (want->columns != got->columns) return "column names differ";
  if (want->rows.size() != got->rows.size()) return "row counts differ";
  for (size_t i = 0; i < want->rows.size(); ++i) {
    if (want->rows[i].size() != got->rows[i].size()) return "row widths differ";
    for (size_t c = 0; c < want->rows[i].size(); ++c) {
      if (!SameValue(want->rows[i][c], got->rows[i][c])) {
        return "row " + std::to_string(i) + " column " + std::to_string(c) +
               " differs";
      }
    }
  }
  const ExecStats& w = want->stats;
  const ExecStats& g = got->stats;
  if (w.rows_returned != g.rows_returned) return "rows_returned differs";
  if (compare_stats &&
      (w.rows_scanned != g.rows_scanned || w.used_index != g.used_index ||
       w.index_name != g.index_name)) {
    return "ExecStats differ";
  }
  return "";
}

class SqlDifferentialTest : public ::testing::Test {
 protected:
  void Reset() {
    oracle_db_ = std::make_unique<Database>("oracle");
    planner_db_ = std::make_unique<Database>("planner");
    BuildFixture(FuzzSeed(), oracle_db_.get());
    BuildFixture(FuzzSeed(), planner_db_.get());
  }

  std::unique_ptr<Database> oracle_db_;
  std::unique_ptr<Database> planner_db_;
};

TEST_F(SqlDifferentialTest, PlannerMatchesRowInterpreter) {
  Rng rng(FuzzSeed() * 7919 + 1);
  SqlGen gen(rng);
  const size_t iters = FuzzIters(/*fallback=*/3000);
  size_t ok_count = 0, error_count = 0, dml_count = 0, rule_count = 0;
  Reset();
  for (size_t i = 0; i < iters; ++i) {
    if (i % 200 == 0) Reset();
    const double roll = rng.NextDouble();
    const int mode = roll < 0.03 ? 1 : roll < 0.06 ? 2 : 0;
    const bool dml = mode == 0 && roll > 0.85;
    const std::string sql = dml ? gen.Dml() : gen.Select(mode);
    const std::string where =
        "iteration " + std::to_string(i) + " (NIMBLE_FUZZ_SEED=" +
        std::to_string(FuzzSeed()) + "):\n  " + sql;

    Result<ResultSet> got = planner_db_->Execute(sql);
    if (mode == 1) {
      // Rule 4: an unknown column fails at plan time; the interpreter only
      // noticed when it evaluated a row.
      ++rule_count;
      Result<ResultSet> want = oracle::Execute(oracle_db_.get(), sql);
      ASSERT_FALSE(got.ok()) << where;
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << where;
      ASSERT_TRUE(!want.ok() || want->rows.empty()) << where;
      continue;
    }
    if (mode == 2) {
      // Rule 5: a bare column in an aggregate query is an error.
      ++rule_count;
      ASSERT_FALSE(got.ok()) << where;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
          << where << "\n" << got.status().ToString();
      continue;
    }
    Result<ResultSet> want = oracle::Execute(oracle_db_.get(), sql);
    const std::string diff = Diff(want, got, /*compare_stats=*/!dml);
    ASSERT_EQ(diff, "") << where << "\noracle:  " << Render(want)
                        << "\nplanner: " << Render(got);
    got.ok() ? ++ok_count : ++error_count;
    if (!dml) continue;
    ++dml_count;
    // The twins must still hold the same rows, and the planner's index
    // probes must see the same rows on both.
    for (const char* check :
         {"SELECT * FROM t", "SELECT * FROM u", "SELECT id, b FROM t WHERE a = 1",
          "SELECT k FROM u WHERE w >= 'a'"}) {
      const std::string state =
          Diff(oracle::Execute(oracle_db_.get(), check),
               planner_db_->Execute(check), /*compare_stats=*/false);
      ASSERT_EQ(state, "") << where << "\nthen " << check;
      ASSERT_EQ(Diff(oracle_db_->Execute(check), planner_db_->Execute(check),
                     /*compare_stats=*/true),
                "")
          << where << "\nthen (planner on both) " << check;
    }
  }
  // The grammar must reach both outcomes, and DML, in volume.
  EXPECT_GT(ok_count, iters / 3);
  EXPECT_GT(error_count, 0u);
  EXPECT_GT(dml_count, iters / 20);
  EXPECT_GT(rule_count, 0u);
  std::printf("sql differential: %zu agreed ok, %zu agreed errors, %zu DML, "
              "%zu rule 4/5 checks\n",
              ok_count, error_count, dml_count, rule_count);
}

}  // namespace
}  // namespace relational
}  // namespace nimble
