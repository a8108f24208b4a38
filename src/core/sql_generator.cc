#include "core/sql_generator.h"

#include <cmath>
#include <map>

#include "relational/sql_ast.h"

namespace nimble {
namespace core {

namespace {

using relational::SqlExpr;

/// Maps an XML-QL comparison operator to its SQL spelling.
const char* SqlOp(xmlql::Condition::Op op) {
  switch (op) {
    case xmlql::Condition::Op::kEq:
      return "=";
    case xmlql::Condition::Op::kNe:
      return "!=";
    case xmlql::Condition::Op::kLt:
      return "<";
    case xmlql::Condition::Op::kLe:
      return "<=";
    case xmlql::Condition::Op::kGt:
      return ">";
    case xmlql::Condition::Op::kGe:
      return ">=";
    case xmlql::Condition::Op::kLike:
      return "LIKE";
  }
  return "=";
}

bool PatternIsPlainElement(const xmlql::ElementPattern& p) {
  return !p.descendant && p.attributes.empty() && p.element_variable.empty() &&
         p.content_variable.empty() && !p.content_literal.has_value() &&
         p.tag != "*";
}

bool FieldIsPlain(const xmlql::ElementPattern& p) {
  return !p.descendant && p.attributes.empty() && p.element_variable.empty() &&
         p.children.empty() && p.tag != "*";
}

/// SQL has no literal for NaN or an infinity; such values are never
/// translated.
bool NonFinite(const Value& v) {
  return v.is_double() && !std::isfinite(v.AsDouble());
}

}  // namespace

Result<SqlTranslation> TranslateFragmentToSql(
    const Fragment& fragment, const connector::SourceCapabilities& caps,
    const BindValues* bind_values, const TopLevelPushdown* top) {
  if (!caps.supports_sql) {
    return Status::Unsupported("source does not accept SQL");
  }
  const xmlql::ElementPattern& root = fragment.pattern->root;
  const std::string& table = fragment.pattern->source.collection;

  // Shape check: root → single record → flat fields.
  if (!PatternIsPlainElement(root) || root.children.size() != 1) {
    return Status::Unsupported("pattern is not table-shaped (root)");
  }
  const xmlql::ElementPattern& record = *root.children[0];
  if (!PatternIsPlainElement(record) || record.children.empty()) {
    return Status::Unsupported("pattern is not table-shaped (record)");
  }

  // variable → column; literal field constraints become predicates.
  std::map<std::string, std::string> var_to_column;
  std::vector<std::pair<std::string, Value>> literal_fields;
  std::vector<std::pair<std::string, std::string>> duplicate_bindings;
  for (const auto& field : record.children) {
    if (!FieldIsPlain(*field)) {
      return Status::Unsupported("pattern is not table-shaped (field '" +
                                 field->tag + "')");
    }
    if (field->content_literal.has_value()) {
      if (NonFinite(*field->content_literal)) {
        return Status::Unsupported("pattern literal has no SQL spelling");
      }
      literal_fields.emplace_back(field->tag, *field->content_literal);
    }
    if (!field->content_variable.empty()) {
      auto [it, inserted] =
          var_to_column.try_emplace(field->content_variable, field->tag);
      if (!inserted) {
        // Same variable on two columns: equality predicate between them.
        duplicate_bindings.emplace_back(it->second, field->tag);
      }
    }
  }
  if (var_to_column.empty()) {
    return Status::Unsupported("pattern binds no variables");
  }

  SqlTranslation translation;
  relational::SelectStmt stmt;
  stmt.from.table = table;
  for (const auto& [var, column] : var_to_column) {
    relational::SelectItem item;
    item.expr = SqlExpr::ColumnRef("", column);
    stmt.items.push_back(std::move(item));
    translation.variables.push_back(var);
  }

  std::unique_ptr<SqlExpr> where;
  auto add_conjunct = [&where](std::unique_ptr<SqlExpr> expr) {
    where = where == nullptr
                ? std::move(expr)
                : SqlExpr::Binary("AND", std::move(where), std::move(expr));
  };
  for (const auto& [column, literal] : literal_fields) {
    add_conjunct(SqlExpr::Binary("=", SqlExpr::ColumnRef("", column),
                                 SqlExpr::Literal(literal)));
  }
  for (const auto& [col_a, col_b] : duplicate_bindings) {
    add_conjunct(SqlExpr::Binary("=", SqlExpr::ColumnRef("", col_a),
                                 SqlExpr::ColumnRef("", col_b)));
  }

  if (caps.supports_predicates) {
    for (const xmlql::Condition* condition : fragment.local_conditions) {
      // Both operands must translate: variables to columns of this table,
      // literals verbatim.
      auto translate_operand =
          [&](const xmlql::Condition::Operand& operand)
          -> std::unique_ptr<SqlExpr> {
        if (!operand.is_variable) {
          if (NonFinite(operand.literal)) return nullptr;
          return SqlExpr::Literal(operand.literal);
        }
        auto it = var_to_column.find(operand.variable);
        if (it == var_to_column.end()) return nullptr;
        return SqlExpr::ColumnRef("", it->second);
      };
      std::unique_ptr<SqlExpr> lhs = translate_operand(condition->lhs);
      std::unique_ptr<SqlExpr> rhs = translate_operand(condition->rhs);
      if (lhs == nullptr || rhs == nullptr) continue;
      if (condition->lhs.is_variable) {
        const std::string& column = var_to_column[condition->lhs.variable];
        if (caps.HasIndexOn(table, column)) {
          translation.predicate_hits_index = true;
        }
      }
      add_conjunct(SqlExpr::Binary(SqlOp(condition->op), std::move(lhs),
                                   std::move(rhs)));
      translation.pushed_conditions.push_back(condition);
    }
  }
  // Bind-join semijoin filters: for variables whose complete value set is
  // already known from other fragments, push `col IN (…)`.
  if (caps.supports_predicates && bind_values != nullptr) {
    for (const auto& [var, values] : *bind_values) {
      auto it = var_to_column.find(var);
      if (it == var_to_column.end()) continue;
      std::unique_ptr<SqlExpr> in = SqlExpr::Function("IN");
      in->args.push_back(SqlExpr::ColumnRef("", it->second));
      size_t added = 0;
      for (const Value& v : values) {
        if (v.is_null()) continue;  // null never equi-joins
        in->args.push_back(SqlExpr::Literal(v));
        ++added;
      }
      if (added == 0) continue;
      if (caps.HasIndexOn(table, it->second)) {
        translation.predicate_hits_index = true;
      }
      add_conjunct(std::move(in));
      translation.bound_variables.push_back(var);
    }
  }

  stmt.where = std::move(where);

  // Single-fragment ORDER BY / LIMIT pushdown.
  if (top != nullptr && top->order_by != nullptr) {
    bool all_keys_map = true;
    for (const xmlql::OrderSpec& spec : *top->order_by) {
      if (var_to_column.count(spec.variable) == 0) {
        all_keys_map = false;
        break;
      }
    }
    if (all_keys_map && !top->order_by->empty()) {
      for (const xmlql::OrderSpec& spec : *top->order_by) {
        relational::OrderKey key;
        key.expr = SqlExpr::ColumnRef("", var_to_column[spec.variable]);
        key.descending = spec.descending;
        // The SQL subset requires ORDER BY keys in the select list; all
        // bound variables are projected, so this holds by construction.
        stmt.order_by.push_back(std::move(key));
      }
      translation.order_pushed = true;
    }
    bool all_conditions_pushed =
        translation.pushed_conditions.size() ==
        fragment.local_conditions.size();
    bool order_satisfied =
        top->order_by->empty() || translation.order_pushed;
    if (top->limit >= 0 && all_conditions_pushed && order_satisfied) {
      stmt.limit = top->limit;
      translation.limit_pushed = true;
    }
  }

  translation.sql = stmt.ToSql();
  return translation;
}

}  // namespace core
}  // namespace nimble
