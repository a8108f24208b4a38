#ifndef NIMBLE_RELATIONAL_SQL_AST_H_
#define NIMBLE_RELATIONAL_SQL_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "relational/schema.h"
#include "xml/value.h"

namespace nimble {
namespace relational {

/// A SQL expression node. One compact struct covers the whole subset:
/// literals, (qualified) column references, unary/binary operators and
/// function calls (scalar and aggregate).
struct SqlExpr {
  enum class Kind {
    kLiteral,
    kColumnRef,
    kUnary,     ///< op in {"NOT", "-", "ISNULL", "ISNOTNULL"}
    kBinary,    ///< op in {"=","!=","<","<=",">",">=","+","-","*","/","%",
                ///<        "AND","OR","LIKE"}
    kFunction,  ///< name in {"COUNT","SUM","AVG","MIN","MAX","UPPER",
                ///<          "LOWER","LENGTH","ABS"}; also the variadic
                ///<          "IN" (args[0] = probe, args[1..] = list).
    kStar,      ///< only inside COUNT(*)
  };

  Kind kind = Kind::kLiteral;
  Value literal;
  std::string qualifier;  ///< table alias for column refs; may be empty.
  std::string column;
  std::string op;  ///< operator symbol or function name (upper-cased).
  std::vector<std::unique_ptr<SqlExpr>> args;

  static std::unique_ptr<SqlExpr> Literal(Value v);
  static std::unique_ptr<SqlExpr> ColumnRef(std::string qualifier,
                                            std::string column);
  static std::unique_ptr<SqlExpr> Unary(std::string op,
                                        std::unique_ptr<SqlExpr> arg);
  static std::unique_ptr<SqlExpr> Binary(std::string op,
                                         std::unique_ptr<SqlExpr> lhs,
                                         std::unique_ptr<SqlExpr> rhs);
  static std::unique_ptr<SqlExpr> Function(std::string name);
  static std::unique_ptr<SqlExpr> Star();

  /// True for a call of COUNT, SUM, AVG, MIN or MAX.
  bool IsAggregateCall() const;

  /// True if this subtree contains an aggregate function call.
  bool ContainsAggregate() const;

  /// Renders the expression back to SQL text (used by the mediator's SQL
  /// generator and by tests).
  std::string ToSql() const;
};

/// One projection item: expression plus optional alias.
struct SelectItem {
  std::unique_ptr<SqlExpr> expr;
  std::string alias;
};

/// A table reference with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  ///< effective name: alias if set, else table.
  const std::string& EffectiveName() const {
    return alias.empty() ? table : alias;
  }
};

struct JoinClause {
  TableRef table;
  std::unique_ptr<SqlExpr> condition;  ///< ON expression.
  /// LEFT [OUTER] JOIN: unmatched left rows survive with nulls on the
  /// right side.
  bool left_outer = false;
};

struct OrderKey {
  std::unique_ptr<SqlExpr> expr;
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  bool select_star = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  std::unique_ptr<SqlExpr> where;
  std::vector<std::unique_ptr<SqlExpr>> group_by;
  std::unique_ptr<SqlExpr> having;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;  ///< -1 = no limit.

  /// Renders back to SQL text.
  std::string ToSql() const;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  ///< empty = schema order.
  std::vector<std::vector<Value>> rows;
};

struct CreateTableStmt {
  std::string table;
  std::vector<Column> columns;
  std::string primary_key;  ///< empty = none.
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
};

struct DeleteStmt {
  std::string table;
  std::unique_ptr<SqlExpr> where;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<SqlExpr>>> assignments;
  std::unique_ptr<SqlExpr> where;
};

/// A parsed SQL statement.
using SqlStatement = std::variant<SelectStmt, InsertStmt, CreateTableStmt,
                                  CreateIndexStmt, DeleteStmt, UpdateStmt>;

/// Quotes a scalar for embedding in SQL text ('…' with doubled quotes for
/// strings; NULL for null). SQL has no literal for NaN or an infinity:
/// they print as nan, inf and -inf, which parse back as names. User SQL
/// that computes one (1e999 reads as inf) still gets a stable name for its
/// select items and group keys; generated SQL never carries one
/// (core/sql_generator.cc, IntegrationEngine::HarvestBindValues).
std::string SqlQuote(const Value& v);

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_SQL_AST_H_
