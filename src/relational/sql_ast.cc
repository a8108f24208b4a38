#include "relational/sql_ast.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace nimble {
namespace relational {

std::unique_ptr<SqlExpr> SqlExpr::Literal(Value v) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<SqlExpr> SqlExpr::ColumnRef(std::string qualifier,
                                            std::string column) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<SqlExpr> SqlExpr::Unary(std::string op,
                                        std::unique_ptr<SqlExpr> arg) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kUnary;
  e->op = std::move(op);
  e->args.push_back(std::move(arg));
  return e;
}

std::unique_ptr<SqlExpr> SqlExpr::Binary(std::string op,
                                         std::unique_ptr<SqlExpr> lhs,
                                         std::unique_ptr<SqlExpr> rhs) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<SqlExpr> SqlExpr::Function(std::string name) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kFunction;
  e->op = ToUpper(name);
  return e;
}

std::unique_ptr<SqlExpr> SqlExpr::Star() {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kStar;
  return e;
}

bool SqlExpr::IsAggregateCall() const {
  return kind == Kind::kFunction && (op == "COUNT" || op == "SUM" ||
                                     op == "AVG" || op == "MIN" || op == "MAX");
}

bool SqlExpr::ContainsAggregate() const {
  if (IsAggregateCall()) return true;
  for (const auto& arg : args) {
    if (arg->ContainsAggregate()) return true;
  }
  return false;
}

std::string SqlQuote(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return v.AsBool() ? "TRUE" : "FALSE";
    case ValueType::kInt:
      return v.ToString();
    case ValueType::kDouble: {
      // The fewest significant digits, from ToString's 12 up to 17, that
      // parse back to the same double: a pushed literal or IN key selects
      // exactly its value, and every literal ToString renders exactly
      // keeps that text. Bare digits gain ".0" so the text lexes as a
      // double again: 25.0 stays "25.0", and -0.0 keeps its sign instead of
      // reparsing as Int(0).
      char buf[32];
      for (int digits = 12; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, v.AsDouble());
        if (std::strtod(buf, nullptr) == v.AsDouble()) break;
      }
      std::string text = buf;
      if (text.find_first_not_of("-0123456789") == std::string::npos) {
        text += ".0";
      }
      return text;
    }
    case ValueType::kString:
      return "'" + ReplaceAll(v.AsString(), "'", "''") + "'";
  }
  return "NULL";
}

std::string SqlExpr::ToSql() const {
  switch (kind) {
    case Kind::kLiteral:
      return SqlQuote(literal);
    case Kind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case Kind::kStar:
      return "*";
    case Kind::kUnary:
      if (op == "ISNULL") return "(" + args[0]->ToSql() + " IS NULL)";
      if (op == "ISNOTNULL") return "(" + args[0]->ToSql() + " IS NOT NULL)";
      if (op == "NOT") return "(NOT " + args[0]->ToSql() + ")";
      {
        // A space keeps minus over a negative literal, -(-5), from printing
        // "--", which the lexer reads as a comment.
        const std::string arg = args[0]->ToSql();
        return "(" + op + (arg.rfind('-', 0) == 0 ? " " : "") + arg + ")";
      }
    case Kind::kBinary:
      return "(" + args[0]->ToSql() + " " + op + " " + args[1]->ToSql() + ")";
    case Kind::kFunction: {
      if (op == "IN") {
        std::string out = "(" + args[0]->ToSql() + " IN (";
        for (size_t i = 1; i < args.size(); ++i) {
          if (i > 1) out += ", ";
          out += args[i]->ToSql();
        }
        return out + "))";
      }
      std::string out = op + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToSql();
      }
      return out + ")";
    }
  }
  return "";
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  if (select_star) {
    out += "*";
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += items[i].expr->ToSql();
      if (!items[i].alias.empty()) out += " AS " + items[i].alias;
    }
  }
  out += " FROM " + from.table;
  if (!from.alias.empty()) out += " AS " + from.alias;
  for (const JoinClause& join : joins) {
    out += join.left_outer ? " LEFT JOIN " : " JOIN ";
    out += join.table.table;
    if (!join.table.alias.empty()) out += " AS " + join.table.alias;
    out += " ON " + join.condition->ToSql();
  }
  if (where != nullptr) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToSql();
    }
  }
  if (having != nullptr) out += " HAVING " + having->ToSql();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToSql();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

}  // namespace relational
}  // namespace nimble
