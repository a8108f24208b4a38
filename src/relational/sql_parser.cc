#include "relational/sql_parser.h"

#include <cerrno>
#include <cstdlib>

#include "common/strings.h"
#include "relational/sql_lexer.h"

namespace nimble {
namespace relational {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> ParseStatement() {
    if (PeekKeyword("SELECT")) {
      NIMBLE_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect());
      NIMBLE_RETURN_IF_ERROR(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    if (PeekKeyword("INSERT")) {
      NIMBLE_ASSIGN_OR_RETURN(InsertStmt stmt, ParseInsert());
      NIMBLE_RETURN_IF_ERROR(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    if (PeekKeyword("CREATE")) {
      ++pos_;
      if (PeekKeyword("TABLE")) {
        NIMBLE_ASSIGN_OR_RETURN(CreateTableStmt stmt, ParseCreateTable());
        NIMBLE_RETURN_IF_ERROR(ExpectEnd());
        return SqlStatement(std::move(stmt));
      }
      if (PeekKeyword("INDEX")) {
        NIMBLE_ASSIGN_OR_RETURN(CreateIndexStmt stmt, ParseCreateIndex());
        NIMBLE_RETURN_IF_ERROR(ExpectEnd());
        return SqlStatement(std::move(stmt));
      }
      return Error("expected TABLE or INDEX after CREATE");
    }
    if (PeekKeyword("DELETE")) {
      NIMBLE_ASSIGN_OR_RETURN(DeleteStmt stmt, ParseDelete());
      NIMBLE_RETURN_IF_ERROR(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    if (PeekKeyword("UPDATE")) {
      NIMBLE_ASSIGN_OR_RETURN(UpdateStmt stmt, ParseUpdate());
      NIMBLE_RETURN_IF_ERROR(ExpectEnd());
      return SqlStatement(std::move(stmt));
    }
    return Error("expected SELECT, INSERT, CREATE, DELETE or UPDATE");
  }

 private:
  const SqlToken& Peek() const { return tokens_[pos_]; }
  bool PeekKeyword(const char* kw) const {
    return Peek().kind == SqlTokenKind::kKeyword && Peek().text == kw;
  }
  bool PeekOperator(const char* op) const {
    return Peek().kind == SqlTokenKind::kOperator && Peek().text == op;
  }
  bool ConsumeKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeOperator(const char* op) {
    if (PeekOperator(op)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& what) const {
    return Status::ParseError("SQL parse error near offset " +
                              std::to_string(Peek().position) + " ('" +
                              Peek().text + "'): " + what);
  }
  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) return Error(std::string("expected ") + kw);
    return Status::OK();
  }
  Status ExpectOperator(const char* op) {
    if (!ConsumeOperator(op)) {
      return Error(std::string("expected '") + op + "'");
    }
    return Status::OK();
  }
  Status ExpectEnd() {
    if (Peek().kind != SqlTokenKind::kEnd) return Error("trailing tokens");
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != SqlTokenKind::kIdentifier) {
      return Error("expected identifier");
    }
    return tokens_[pos_++].text;
  }

  // ---- SELECT -------------------------------------------------------------

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    stmt.distinct = ConsumeKeyword("DISTINCT");
    if (ConsumeOperator("*")) {
      stmt.select_star = true;
    } else {
      while (true) {
        SelectItem item;
        NIMBLE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          NIMBLE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        } else if (Peek().kind == SqlTokenKind::kIdentifier) {
          item.alias = tokens_[pos_++].text;  // bare alias
        }
        stmt.items.push_back(std::move(item));
        if (!ConsumeOperator(",")) break;
      }
    }
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());
    while (true) {
      JoinClause join;
      if (ConsumeKeyword("LEFT")) {
        ConsumeKeyword("OUTER");  // optional
        NIMBLE_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        join.left_outer = true;
      } else if (!ConsumeKeyword("JOIN")) {
        break;
      }
      NIMBLE_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      NIMBLE_RETURN_IF_ERROR(ExpectKeyword("ON"));
      NIMBLE_ASSIGN_OR_RETURN(join.condition, ParseExpr());
      stmt.joins.push_back(std::move(join));
    }
    if (ConsumeKeyword("WHERE")) {
      NIMBLE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      NIMBLE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> key, ParseExpr());
        stmt.group_by.push_back(std::move(key));
        if (!ConsumeOperator(",")) break;
      }
      if (ConsumeKeyword("HAVING")) {
        NIMBLE_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
      }
    }
    if (ConsumeKeyword("ORDER")) {
      NIMBLE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderKey key;
        NIMBLE_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          key.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
        if (!ConsumeOperator(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != SqlTokenKind::kInteger) {
        return Error("expected integer after LIMIT");
      }
      NIMBLE_ASSIGN_OR_RETURN(Value limit, ParseLiteralValue());
      stmt.limit = limit.AsInt();
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    NIMBLE_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    if (ConsumeKeyword("AS")) {
      NIMBLE_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().kind == SqlTokenKind::kIdentifier) {
      ref.alias = tokens_[pos_++].text;
    }
    return ref;
  }

  // ---- INSERT / CREATE / DELETE / UPDATE ------------------------------------

  Result<InsertStmt> ParseInsert() {
    InsertStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (ConsumeOperator("(")) {
      while (true) {
        NIMBLE_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt.columns.push_back(std::move(col));
        if (!ConsumeOperator(",")) break;
      }
      NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
    }
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      NIMBLE_RETURN_IF_ERROR(ExpectOperator("("));
      std::vector<Value> row;
      while (true) {
        NIMBLE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
        if (!ConsumeOperator(",")) break;
      }
      NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
      stmt.rows.push_back(std::move(row));
      if (!ConsumeOperator(",")) break;
    }
    return stmt;
  }

  /// The one literal parse, for INSERT values, IN lists and expressions: a
  /// leading '-' folds into a numeric literal, so `-5` is Int(-5), not
  /// minus applied to 5. An integer must fit int64: `-9223372036854775808`
  /// is INT64_MIN, and any other magnitude beyond INT64_MAX is an error.
  Result<Value> ParseLiteralValue() {
    bool negative = ConsumeOperator("-");
    const SqlToken& tok = Peek();
    switch (tok.kind) {
      case SqlTokenKind::kInteger: {
        errno = 0;
        const unsigned long long magnitude =
            std::strtoull(tok.text.c_str(), nullptr, 10);
        const unsigned long long limit = (1ULL << 63) - (negative ? 0 : 1);
        if (errno == ERANGE || magnitude > limit) {
          return Error("integer literal out of range");
        }
        ++pos_;
        // Two's complement negation in unsigned arithmetic: 2^63 becomes
        // INT64_MIN without overflowing.
        return Value::Int(static_cast<int64_t>(negative ? 0 - magnitude
                                                        : magnitude));
      }
      case SqlTokenKind::kFloat: {
        double v = std::strtod(tok.text.c_str(), nullptr);
        ++pos_;
        return Value::Double(negative ? -v : v);
      }
      case SqlTokenKind::kString: {
        if (negative) return Error("'-' before string literal");
        std::string s = tok.text;
        ++pos_;
        return Value::String(std::move(s));
      }
      case SqlTokenKind::kKeyword:
        if (negative) return Error("'-' before keyword literal");
        if (ConsumeKeyword("NULL")) return Value::Null();
        if (ConsumeKeyword("TRUE")) return Value::Bool(true);
        if (ConsumeKeyword("FALSE")) return Value::Bool(false);
        return Error("expected literal");
      default:
        return Error("expected literal");
    }
  }

  Result<CreateTableStmt> ParseCreateTable() {
    CreateTableStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    NIMBLE_RETURN_IF_ERROR(ExpectOperator("("));
    while (true) {
      Column col;
      NIMBLE_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      if (Peek().kind != SqlTokenKind::kKeyword) {
        return Error("expected a column type");
      }
      std::string type = tokens_[pos_++].text;
      if (type == "INT" || type == "INTEGER") {
        col.type = ValueType::kInt;
      } else if (type == "DOUBLE" || type == "FLOAT" || type == "REAL") {
        col.type = ValueType::kDouble;
      } else if (type == "TEXT" || type == "VARCHAR" || type == "STRING") {
        col.type = ValueType::kString;
        // Optional VARCHAR(n) size, ignored.
        if (ConsumeOperator("(")) {
          if (Peek().kind == SqlTokenKind::kInteger) ++pos_;
          NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
        }
      } else if (type == "BOOL" || type == "BOOLEAN") {
        col.type = ValueType::kBool;
      } else {
        return Error("unknown column type " + type);
      }
      if (ConsumeKeyword("PRIMARY")) {
        NIMBLE_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        stmt.primary_key = col.name;
        col.nullable = false;
      }
      if (ConsumeKeyword("NOT")) {
        NIMBLE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        col.nullable = false;
      }
      stmt.columns.push_back(std::move(col));
      if (!ConsumeOperator(",")) break;
    }
    NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
    return stmt;
  }

  Result<CreateIndexStmt> ParseCreateIndex() {
    CreateIndexStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.index_name, ExpectIdentifier());
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("ON"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    NIMBLE_RETURN_IF_ERROR(ExpectOperator("("));
    NIMBLE_ASSIGN_OR_RETURN(stmt.column, ExpectIdentifier());
    NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
    return stmt;
  }

  Result<DeleteStmt> ParseDelete() {
    DeleteStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      NIMBLE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<UpdateStmt> ParseUpdate() {
    UpdateStmt stmt;
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    NIMBLE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    NIMBLE_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      NIMBLE_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      NIMBLE_RETURN_IF_ERROR(ExpectOperator("="));
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> expr, ParseExpr());
      stmt.assignments.emplace_back(std::move(col), std::move(expr));
      if (!ConsumeOperator(",")) break;
    }
    if (ConsumeKeyword("WHERE")) {
      NIMBLE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  // ---- Expressions (precedence climbing) -----------------------------------

  Result<std::unique_ptr<SqlExpr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<SqlExpr>> ParseOr() {
    NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseAnd());
      lhs = SqlExpr::Binary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseAnd() {
    NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseNot());
      lhs = SqlExpr::Binary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> arg, ParseNot());
      return SqlExpr::Unary("NOT", std::move(arg));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<SqlExpr>> ParseComparison() {
    NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseAdditive());
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      NIMBLE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return SqlExpr::Unary(negated ? "ISNOTNULL" : "ISNULL", std::move(lhs));
    }
    if (ConsumeKeyword("LIKE")) {
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseAdditive());
      return SqlExpr::Binary("LIKE", std::move(lhs), std::move(rhs));
    }
    if (ConsumeKeyword("IN")) {
      NIMBLE_RETURN_IF_ERROR(ExpectOperator("("));
      std::unique_ptr<SqlExpr> in = SqlExpr::Function("IN");
      in->args.push_back(std::move(lhs));
      while (true) {
        NIMBLE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        in->args.push_back(SqlExpr::Literal(std::move(v)));
        if (!ConsumeOperator(",")) break;
      }
      NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
      return in;
    }
    for (const char* op : {"=", "!=", "<=", ">=", "<", ">"}) {
      if (ConsumeOperator(op)) {
        NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseAdditive());
        return SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseAdditive() {
    NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseMultiplicative());
    while (true) {
      const char* op = nullptr;
      if (PeekOperator("+")) {
        op = "+";
      } else if (PeekOperator("-")) {
        op = "-";
      } else {
        break;
      }
      ++pos_;
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs,
                              ParseMultiplicative());
      lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseMultiplicative() {
    NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseUnary());
    while (true) {
      const char* op = nullptr;
      if (PeekOperator("*")) {
        op = "*";
      } else if (PeekOperator("/")) {
        op = "/";
      } else if (PeekOperator("%")) {
        op = "%";
      } else {
        break;
      }
      ++pos_;
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseUnary());
      lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseUnary() {
    if (PeekOperator("-")) {
      const SqlTokenKind next = tokens_[pos_ + 1].kind;  // kEnd-terminated
      if (next == SqlTokenKind::kInteger || next == SqlTokenKind::kFloat) {
        NIMBLE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return SqlExpr::Literal(std::move(v));
      }
      ++pos_;
      NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> arg, ParseUnary());
      return SqlExpr::Unary("-", std::move(arg));
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<SqlExpr>> ParsePrimary() {
    const SqlToken& tok = Peek();
    switch (tok.kind) {
      case SqlTokenKind::kInteger:
      case SqlTokenKind::kFloat:
      case SqlTokenKind::kString: {
        NIMBLE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return SqlExpr::Literal(std::move(v));
      }
      case SqlTokenKind::kKeyword:
        if (ConsumeKeyword("NULL")) return SqlExpr::Literal(Value::Null());
        if (ConsumeKeyword("TRUE")) return SqlExpr::Literal(Value::Bool(true));
        if (ConsumeKeyword("FALSE")) {
          return SqlExpr::Literal(Value::Bool(false));
        }
        return Error("unexpected keyword in expression");
      case SqlTokenKind::kOperator:
        if (ConsumeOperator("(")) {
          NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> inner, ParseExpr());
          NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
          return inner;
        }
        return Error("unexpected token in expression");
      case SqlTokenKind::kIdentifier: {
        std::string first = tokens_[pos_++].text;
        // Function call?
        if (ConsumeOperator("(")) {
          std::unique_ptr<SqlExpr> fn = SqlExpr::Function(first);
          if (ConsumeOperator("*")) {
            fn->args.push_back(SqlExpr::Star());
          } else if (!PeekOperator(")")) {
            while (true) {
              NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> arg,
                                      ParseExpr());
              fn->args.push_back(std::move(arg));
              if (!ConsumeOperator(",")) break;
            }
          }
          NIMBLE_RETURN_IF_ERROR(ExpectOperator(")"));
          return fn;
        }
        // Qualified column?
        if (ConsumeOperator(".")) {
          NIMBLE_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          return SqlExpr::ColumnRef(first, col);
        }
        return SqlExpr::ColumnRef("", first);
      }
      case SqlTokenKind::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token");
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlStatement> ParseSql(std::string_view sql) {
  NIMBLE_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, TokenizeSql(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace relational
}  // namespace nimble
