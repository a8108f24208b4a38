// The row-at-a-time SQL interpreter that src/relational/ ran before the
// planner lowered SQL onto the batch algebra, kept verbatim apart from the
// marked edits as the oracle of sql_differential_test. Known defects kept
// on purpose: int64 arithmetic wraps (or traps: INT64_MIN % -1), names
// resolve only when a row is evaluated, and a bare column in an aggregate
// query reads an arbitrary row of its group.

#include "sql_oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/strings.h"
#include "relational/database.h"
#include "relational/sql_parser.h"

namespace nimble {
namespace relational {
namespace oracle {

namespace {

/// Oracle edit: rows are read through Table's public accessors (the row
/// materialization helpers left Table with this interpreter).
Row RowAt(const Table& table, size_t row_id) {
  Row row;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    row.push_back(table.at(row_id, c));
  }
  return row;
}

/// Column-name resolution scope for (possibly joined) rows: one slot per
/// column of the concatenated row, tagged with its table alias.
struct Scope {
  std::vector<std::pair<std::string, std::string>> slots;  // (qualifier, col)

  void AddTable(const std::string& qualifier, const TableSchema& schema) {
    for (const Column& col : schema.columns()) {
      slots.emplace_back(qualifier, col.name);
    }
  }

  Result<size_t> Resolve(const std::string& qualifier,
                         const std::string& column) const {
    size_t found = slots.size();
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].second != column) continue;
      if (!qualifier.empty() && slots[i].first != qualifier) continue;
      if (found != slots.size()) {
        return Status::InvalidArgument("ambiguous column reference '" +
                                       column + "'");
      }
      found = i;
    }
    if (found == slots.size()) {
      return Status::NotFound("unknown column '" +
                              (qualifier.empty() ? column
                                                 : qualifier + "." + column) +
                              "'");
    }
    return found;
  }
};

/// Group context: non-null while evaluating aggregate projections.
struct GroupContext {
  const std::vector<const Row*>* rows = nullptr;
};

Result<Value> Evaluate(const SqlExpr& expr, const Scope& scope, const Row& row,
                       const GroupContext* group);

Result<Value> EvaluateAggregate(const SqlExpr& expr, const Scope& scope,
                                const GroupContext& group) {
  const std::vector<const Row*>& rows = *group.rows;
  if (expr.op == "COUNT") {
    if (!expr.args.empty() && expr.args[0]->kind == SqlExpr::Kind::kStar) {
      return Value::Int(static_cast<int64_t>(rows.size()));
    }
    int64_t count = 0;
    for (const Row* r : rows) {
      NIMBLE_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*expr.args[0], scope, *r, nullptr));
      if (!v.is_null()) ++count;
    }
    return Value::Int(count);
  }
  if (expr.args.empty()) {
    return Status::InvalidArgument(expr.op + " requires an argument");
  }
  bool any = false;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  Value min_v, max_v;
  int64_t n = 0;
  for (const Row* r : rows) {
    NIMBLE_ASSIGN_OR_RETURN(Value v,
                            Evaluate(*expr.args[0], scope, *r, nullptr));
    if (v.is_null()) continue;
    if (!any) {
      min_v = v;
      max_v = v;
      any = true;
    } else {
      if (v.Compare(min_v) < 0) min_v = v;
      if (v.Compare(max_v) > 0) max_v = v;
    }
    if (expr.op == "SUM" || expr.op == "AVG") {
      NIMBLE_ASSIGN_OR_RETURN(double d, v.ToDouble());
      sum += d;
      if (v.is_int()) {
        isum += v.AsInt();
      } else {
        all_int = false;
      }
    }
    ++n;
  }
  if (expr.op == "MIN") return any ? min_v : Value::Null();
  if (expr.op == "MAX") return any ? max_v : Value::Null();
  if (expr.op == "SUM") {
    if (!any) return Value::Null();
    return all_int ? Value::Int(isum) : Value::Double(sum);
  }
  if (expr.op == "AVG") {
    if (!any) return Value::Null();
    return Value::Double(sum / static_cast<double>(n));
  }
  return Status::Unsupported("aggregate " + expr.op);
}

Result<Value> EvaluateBinary(const SqlExpr& expr, const Scope& scope,
                             const Row& row, const GroupContext* group) {
  const std::string& op = expr.op;
  // Short-circuit logical operators.
  if (op == "AND" || op == "OR") {
    NIMBLE_ASSIGN_OR_RETURN(Value lhs,
                            Evaluate(*expr.args[0], scope, row, group));
    bool l = lhs.Truthy();
    if (op == "AND" && !l) return Value::Bool(false);
    if (op == "OR" && l) return Value::Bool(true);
    NIMBLE_ASSIGN_OR_RETURN(Value rhs,
                            Evaluate(*expr.args[1], scope, row, group));
    return Value::Bool(rhs.Truthy());
  }
  NIMBLE_ASSIGN_OR_RETURN(Value lhs, Evaluate(*expr.args[0], scope, row, group));
  NIMBLE_ASSIGN_OR_RETURN(Value rhs, Evaluate(*expr.args[1], scope, row, group));
  if (op == "LIKE") {
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    return Value::Bool(LikeMatch(lhs.ToString(), rhs.ToString()));
  }
  // SQL three-valued comparison: null operand → false.
  if (op == "=" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
      op == ">=") {
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    int cmp = lhs.Compare(rhs);
    if (op == "=") return Value::Bool(cmp == 0);
    if (op == "!=") return Value::Bool(cmp != 0);
    if (op == "<") return Value::Bool(cmp < 0);
    if (op == "<=") return Value::Bool(cmp <= 0);
    if (op == ">") return Value::Bool(cmp > 0);
    return Value::Bool(cmp >= 0);
  }
  // Arithmetic: null-propagating; string '+' concatenates.
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == "+" && (lhs.is_string() || rhs.is_string())) {
    return Value::String(lhs.ToString() + rhs.ToString());
  }
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    if (lhs.is_int() && rhs.is_int() && op != "/") {
      int64_t a = lhs.AsInt(), b = rhs.AsInt();
      if (op == "+") return Value::Int(a + b);
      if (op == "-") return Value::Int(a - b);
      if (op == "*") return Value::Int(a * b);
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int(a % b);
    }
    NIMBLE_ASSIGN_OR_RETURN(double a, lhs.ToDouble());
    NIMBLE_ASSIGN_OR_RETURN(double b, rhs.ToDouble());
    if (op == "+") return Value::Double(a + b);
    if (op == "-") return Value::Double(a - b);
    if (op == "*") return Value::Double(a * b);
    if (op == "/") {
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    }
    return Value::Double(std::fmod(a, b));
  }
  return Status::Unsupported("binary operator " + op);
}

Result<Value> Evaluate(const SqlExpr& expr, const Scope& scope, const Row& row,
                       const GroupContext* group) {
  switch (expr.kind) {
    case SqlExpr::Kind::kLiteral:
      return expr.literal;
    case SqlExpr::Kind::kColumnRef: {
      NIMBLE_ASSIGN_OR_RETURN(size_t slot,
                              scope.Resolve(expr.qualifier, expr.column));
      return row[slot];
    }
    case SqlExpr::Kind::kUnary: {
      if (expr.op == "ISNULL" || expr.op == "ISNOTNULL") {
        NIMBLE_ASSIGN_OR_RETURN(Value v,
                                Evaluate(*expr.args[0], scope, row, group));
        bool is_null = v.is_null();
        return Value::Bool(expr.op == "ISNULL" ? is_null : !is_null);
      }
      NIMBLE_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*expr.args[0], scope, row, group));
      if (expr.op == "NOT") return Value::Bool(!v.Truthy());
      if (expr.op == "-") {
        if (v.is_null()) return Value::Null();
        if (v.is_int()) return Value::Int(-v.AsInt());
        NIMBLE_ASSIGN_OR_RETURN(double d, v.ToDouble());
        return Value::Double(-d);
      }
      return Status::Unsupported("unary operator " + expr.op);
    }
    case SqlExpr::Kind::kBinary:
      return EvaluateBinary(expr, scope, row, group);
    case SqlExpr::Kind::kFunction: {
      if (expr.op == "IN") {
        NIMBLE_ASSIGN_OR_RETURN(Value probe,
                                Evaluate(*expr.args[0], scope, row, group));
        if (probe.is_null()) return Value::Bool(false);
        for (size_t i = 1; i < expr.args.size(); ++i) {
          NIMBLE_ASSIGN_OR_RETURN(Value candidate,
                                  Evaluate(*expr.args[i], scope, row, group));
          if (!candidate.is_null() && probe == candidate) {
            return Value::Bool(true);
          }
        }
        return Value::Bool(false);
      }
      if (expr.op == "COUNT" || expr.op == "SUM" || expr.op == "AVG" ||
          expr.op == "MIN" || expr.op == "MAX") {
        if (group == nullptr || group->rows == nullptr) {
          return Status::InvalidArgument("aggregate " + expr.op +
                                         " outside aggregation context");
        }
        return EvaluateAggregate(expr, scope, *group);
      }
      if (expr.args.size() != 1) {
        return Status::InvalidArgument(expr.op + " expects one argument");
      }
      NIMBLE_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*expr.args[0], scope, row, group));
      if (v.is_null()) return Value::Null();
      if (expr.op == "UPPER") return Value::String(ToUpper(v.ToString()));
      if (expr.op == "LOWER") return Value::String(ToLower(v.ToString()));
      if (expr.op == "LENGTH") {
        return Value::Int(static_cast<int64_t>(v.ToString().size()));
      }
      if (expr.op == "ABS") {
        if (v.is_int()) return Value::Int(std::llabs(v.AsInt()));
        NIMBLE_ASSIGN_OR_RETURN(double d, v.ToDouble());
        return Value::Double(std::fabs(d));
      }
      return Status::Unsupported("function " + expr.op);
    }
    case SqlExpr::Kind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unreachable");
}

/// Index-probe extraction: finds one conjunct of the WHERE clause of the
/// form `col OP literal` over `qualifier` that an index can serve.
struct IndexProbe {
  const OrderedIndex* index = nullptr;
  Value eq_key;           ///< equality probe when `is_equality`.
  bool is_equality = false;
  std::vector<Value> in_keys;  ///< IN-list probe when non-empty.
  Value lo, hi;           ///< range bounds (null = open).
  bool lo_inclusive = true, hi_inclusive = true;
};

void CollectConjuncts(const SqlExpr* expr, std::vector<const SqlExpr*>* out) {
  if (expr->kind == SqlExpr::Kind::kBinary && expr->op == "AND") {
    CollectConjuncts(expr->args[0].get(), out);
    CollectConjuncts(expr->args[1].get(), out);
  } else {
    out->push_back(expr);
  }
}

bool RefersToProbedTable(const SqlExpr& col_ref, const std::string& qualifier,
                         const std::vector<const TableSchema*>& join_schemas);

bool MatchColumnLiteral(const SqlExpr& expr, const std::string& qualifier,
                        const std::vector<const TableSchema*>& join_schemas,
                        std::string* column, std::string* op, Value* literal) {
  if (expr.kind != SqlExpr::Kind::kBinary) return false;
  const std::string& o = expr.op;
  if (o != "=" && o != "<" && o != "<=" && o != ">" && o != ">=") return false;
  const SqlExpr* col = expr.args[0].get();
  const SqlExpr* lit = expr.args[1].get();
  bool flipped = false;
  if (col->kind == SqlExpr::Kind::kLiteral &&
      lit->kind == SqlExpr::Kind::kColumnRef) {
    std::swap(col, lit);
    flipped = true;
  }
  if (col->kind != SqlExpr::Kind::kColumnRef ||
      lit->kind != SqlExpr::Kind::kLiteral) {
    return false;
  }
  if (!RefersToProbedTable(*col, qualifier, join_schemas)) return false;
  *column = col->column;
  *literal = lit->literal;
  if (!flipped) {
    *op = o;
  } else if (o == "<") {
    *op = ">";
  } else if (o == "<=") {
    *op = ">=";
  } else if (o == ">") {
    *op = "<";
  } else if (o == ">=") {
    *op = "<=";
  } else {
    *op = o;
  }
  return true;
}

/// True when `col_ref` unambiguously names a column of the probed (leftmost)
/// table: qualified with its name/alias, or unqualified with no join table
/// sharing the column name (an unqualified reference that also resolves on a
/// join table must not restrict the base scan).
bool RefersToProbedTable(const SqlExpr& col_ref, const std::string& qualifier,
                         const std::vector<const TableSchema*>& join_schemas) {
  if (!col_ref.qualifier.empty()) return col_ref.qualifier == qualifier;
  for (const TableSchema* schema : join_schemas) {
    if (schema->ColumnIndex(col_ref.column).has_value()) return false;
  }
  return true;
}

IndexProbe FindIndexProbe(const Table& table, const std::string& qualifier,
                          const SqlExpr* where,
                          const std::vector<const TableSchema*>& join_schemas) {
  IndexProbe probe;
  if (where == nullptr) return probe;
  std::vector<const SqlExpr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  // Prefer an equality probe; otherwise accumulate range bounds on one
  // indexed column.
  for (const SqlExpr* conjunct : conjuncts) {
    // IN-list probe: column IN (literals) over an indexed column.
    if (conjunct->kind == SqlExpr::Kind::kFunction && conjunct->op == "IN" &&
        conjunct->args[0]->kind == SqlExpr::Kind::kColumnRef) {
      const SqlExpr& col_ref = *conjunct->args[0];
      if (RefersToProbedTable(col_ref, qualifier, join_schemas)) {
        const OrderedIndex* index = table.FindIndexOn(col_ref.column);
        bool all_literals = true;
        for (size_t i = 1; i < conjunct->args.size(); ++i) {
          if (conjunct->args[i]->kind != SqlExpr::Kind::kLiteral) {
            all_literals = false;
            break;
          }
        }
        if (index != nullptr && all_literals) {
          probe.index = index;
          probe.in_keys.clear();
          for (size_t i = 1; i < conjunct->args.size(); ++i) {
            probe.in_keys.push_back(conjunct->args[i]->literal);
          }
          return probe;
        }
      }
    }
    std::string column, op;
    Value literal;
    if (!MatchColumnLiteral(*conjunct, qualifier, join_schemas, &column, &op,
                            &literal)) {
      continue;
    }
    const OrderedIndex* index = table.FindIndexOn(column);
    if (index == nullptr) continue;
    if (op == "=") {
      probe.index = index;
      probe.is_equality = true;
      probe.eq_key = literal;
      return probe;
    }
    if (probe.index != nullptr && probe.index != index) continue;
    probe.index = index;
    if (op == "<" || op == "<=") {
      if (probe.hi.is_null() || literal.Compare(probe.hi) < 0) {
        probe.hi = literal;
        probe.hi_inclusive = (op == "<=");
      }
    } else {
      if (probe.lo.is_null() || literal.Compare(probe.lo) > 0) {
        probe.lo = literal;
        probe.lo_inclusive = (op == ">=");
      }
    }
  }
  if (probe.index != nullptr && probe.lo.is_null() && probe.hi.is_null()) {
    probe.index = nullptr;  // matched an index but extracted no bound
  }
  return probe;
}

struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : vs) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};
struct ValueVectorEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

/// Finds equi-join conditions `left.col = right.col` within `condition`
/// where one side resolves in `left_scope` and the other is a column of the
/// joined table. Returns slot/column index pairs.
struct EquiJoinKeys {
  std::vector<size_t> left_slots;
  std::vector<size_t> right_columns;
  std::vector<const SqlExpr*> residual;  ///< non-equi conjuncts.
};

EquiJoinKeys ExtractEquiJoin(const SqlExpr& condition, const Scope& left_scope,
                             const std::string& right_qualifier,
                             const TableSchema& right_schema) {
  EquiJoinKeys keys;
  std::vector<const SqlExpr*> conjuncts;
  CollectConjuncts(&condition, &conjuncts);
  for (const SqlExpr* conjunct : conjuncts) {
    bool handled = false;
    if (conjunct->kind == SqlExpr::Kind::kBinary && conjunct->op == "=" &&
        conjunct->args[0]->kind == SqlExpr::Kind::kColumnRef &&
        conjunct->args[1]->kind == SqlExpr::Kind::kColumnRef) {
      const SqlExpr* a = conjunct->args[0].get();
      const SqlExpr* b = conjunct->args[1].get();
      for (int flip = 0; flip < 2 && !handled; ++flip) {
        const SqlExpr* l = flip == 0 ? a : b;
        const SqlExpr* r = flip == 0 ? b : a;
        // r must be a column of the right table; l must resolve on the left.
        if (!r->qualifier.empty() && r->qualifier != right_qualifier) continue;
        std::optional<size_t> rc = right_schema.ColumnIndex(r->column);
        if (!rc.has_value()) continue;
        if (!r->qualifier.empty() || right_qualifier.empty()) {
          // fall through; qualifier matches
        }
        if (r->qualifier.empty() && l->qualifier.empty()) {
          // Ambiguous unqualified = unqualified: require left resolution.
        }
        Result<size_t> ls = left_scope.Resolve(l->qualifier, l->column);
        if (!ls.ok()) continue;
        keys.left_slots.push_back(*ls);
        keys.right_columns.push_back(*rc);
        handled = true;
      }
    }
    if (!handled) keys.residual.push_back(conjunct);
  }
  return keys;
}

}  // namespace

Result<ResultSet> Select(const Database& db, const SelectStmt& stmt) {
  // ---- Resolve tables -------------------------------------------------------
  const Table* base = db.GetTable(stmt.from.table);
  if (base == nullptr) {
    return Status::NotFound("no table '" + stmt.from.table + "' in database '" +
                            db.name() + "'");
  }
  Scope scope;
  scope.AddTable(stmt.from.EffectiveName(), base->schema());

  ExecStats stats;

  // ---- Base access (index-assisted when possible) ---------------------------
  std::vector<Row> current;
  // The WHERE clause is re-applied in full after joins, so restricting the
  // base scan by one of its sargable conjuncts is safe even when joins
  // follow — as long as the conjunct unambiguously binds to the base table.
  std::vector<const TableSchema*> join_schemas;
  for (const JoinClause& join : stmt.joins) {
    const Table* joined = db.GetTable(join.table.table);
    if (joined != nullptr) join_schemas.push_back(&joined->schema());
  }
  IndexProbe probe = FindIndexProbe(*base, stmt.from.EffectiveName(),
                                    stmt.where.get(), join_schemas);
  if (probe.index != nullptr) {
    stats.used_index = true;
    stats.index_name = probe.index->name();
    std::vector<size_t> row_ids;
    if (probe.is_equality) {
      row_ids = probe.index->Lookup(probe.eq_key);
    } else if (!probe.in_keys.empty()) {
      for (const Value& key : probe.in_keys) {
        std::vector<size_t> hits = probe.index->Lookup(key);
        row_ids.insert(row_ids.end(), hits.begin(), hits.end());
      }
      // A duplicated IN-list value must not duplicate rows.
      std::sort(row_ids.begin(), row_ids.end());
      row_ids.erase(std::unique(row_ids.begin(), row_ids.end()),
                    row_ids.end());
    } else {
      row_ids = probe.index->Range(probe.lo, probe.lo_inclusive, probe.hi,
                                   probe.hi_inclusive);
    }
    for (size_t id : row_ids) {
      if (base->IsLive(id)) {
        current.push_back(RowAt(*base, id));
        ++stats.rows_scanned;
      }
    }
  } else if (stmt.joins.empty() && stmt.where != nullptr) {
    // Single-table predicate pushdown: rows failing the WHERE clause are
    // never kept. (Oracle edit: live rows come from ForEachLiveRow.)
    std::vector<size_t> ids;
    base->ForEachLiveRow([&](size_t id) { ids.push_back(id); });
    for (size_t id : ids) {
      Row row = RowAt(*base, id);
      ++stats.rows_scanned;
      NIMBLE_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*stmt.where, scope, row, nullptr));
      if (v.Truthy()) current.push_back(std::move(row));
    }
  } else {
    base->ForEachLiveRow([&](size_t id) {
      current.push_back(RowAt(*base, id));
      ++stats.rows_scanned;
    });
  }

  // ---- Joins ----------------------------------------------------------------
  for (const JoinClause& join : stmt.joins) {
    const Table* right = db.GetTable(join.table.table);
    if (right == nullptr) {
      return Status::NotFound("no table '" + join.table.table + "'");
    }
    const std::string& right_name = join.table.EffectiveName();
    EquiJoinKeys keys = ExtractEquiJoin(*join.condition, scope, right_name,
                                        right->schema());
    Scope joined_scope = scope;
    joined_scope.AddTable(right_name, right->schema());

    std::vector<Row> next;
    if (!keys.left_slots.empty()) {
      // Hash join: build on the right side, reading key columns directly —
      // build rows are identified by row id and materialized only on match.
      std::unordered_map<std::vector<Value>, std::vector<size_t>,
                         ValueVectorHash, ValueVectorEq>
          hash_table;
      right->ForEachLiveRow([&](size_t id) {
        std::vector<Value> key;
        key.reserve(keys.right_columns.size());
        for (size_t c : keys.right_columns) key.push_back(right->at(id, c));
        hash_table[std::move(key)].push_back(id);
        ++stats.rows_scanned;
      });
      const size_t right_width = right->schema().num_columns();
      for (const Row& left_row : current) {
        std::vector<Value> key;
        key.reserve(keys.left_slots.size());
        bool has_null = false;
        for (size_t s : keys.left_slots) {
          if (left_row[s].is_null()) has_null = true;
          key.push_back(left_row[s]);
        }
        size_t matches = 0;
        if (!has_null) {  // SQL semantics: null never equi-joins.
          auto it = hash_table.find(key);
          if (it != hash_table.end()) {
            for (size_t right_id : it->second) {
              Row combined = left_row;
              combined.reserve(combined.size() + right_width);
              for (size_t c = 0; c < right_width; ++c) {
                combined.push_back(right->at(right_id, c));
              }
              // Residual predicates.
              bool keep = true;
              for (const SqlExpr* residual : keys.residual) {
                NIMBLE_ASSIGN_OR_RETURN(
                    Value v,
                    Evaluate(*residual, joined_scope, combined, nullptr));
                if (!v.Truthy()) {
                  keep = false;
                  break;
                }
              }
              if (keep) {
                next.push_back(std::move(combined));
                ++matches;
              }
            }
          }
        }
        if (matches == 0 && join.left_outer) {
          Row combined = left_row;
          combined.insert(combined.end(), right_width, Value::Null());
          next.push_back(std::move(combined));
        }
      }
    } else {
      // Nested-loop join with the full ON condition; right rows are
      // appended column-wise per pair, never materialized standalone.
      std::vector<size_t> right_ids;
      right->ForEachLiveRow([&](size_t id) {
        right_ids.push_back(id);
        ++stats.rows_scanned;
      });
      const size_t right_width = right->schema().num_columns();
      for (const Row& left_row : current) {
        size_t matches = 0;
        for (size_t right_id : right_ids) {
          Row combined = left_row;
          combined.reserve(combined.size() + right_width);
          for (size_t c = 0; c < right_width; ++c) {
            combined.push_back(right->at(right_id, c));
          }
          NIMBLE_ASSIGN_OR_RETURN(
              Value v,
              Evaluate(*join.condition, joined_scope, combined, nullptr));
          if (v.Truthy()) {
            next.push_back(std::move(combined));
            ++matches;
          }
        }
        if (matches == 0 && join.left_outer) {
          Row combined = left_row;
          combined.insert(combined.end(), right_width, Value::Null());
          next.push_back(std::move(combined));
        }
      }
    }
    current = std::move(next);
    scope = std::move(joined_scope);
  }

  // ---- WHERE ----------------------------------------------------------------
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    filtered.reserve(current.size());
    for (Row& row : current) {
      NIMBLE_ASSIGN_OR_RETURN(Value v,
                              Evaluate(*stmt.where, scope, row, nullptr));
      if (v.Truthy()) filtered.push_back(std::move(row));
    }
    current = std::move(filtered);
  }

  // ---- Projection / aggregation ---------------------------------------------
  ResultSet result;
  bool has_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregate = true;
  }

  if (!stmt.group_by.empty() || has_aggregate) {
    // Hash aggregation.
    std::unordered_map<std::vector<Value>, std::vector<const Row*>,
                       ValueVectorHash, ValueVectorEq>
        groups;
    std::vector<std::vector<Value>> group_order;
    for (const Row& row : current) {
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        NIMBLE_ASSIGN_OR_RETURN(Value v, Evaluate(*g, scope, row, nullptr));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) group_order.push_back(key);
      it->second.push_back(&row);
    }
    // An aggregate query with no groups still yields one (possibly empty)
    // group.
    if (groups.empty() && stmt.group_by.empty()) {
      groups.try_emplace({});
      group_order.push_back({});
    }

    for (const SelectItem& item : stmt.items) {
      result.columns.push_back(!item.alias.empty() ? item.alias
                                                   : item.expr->ToSql());
    }
    for (const std::vector<Value>& key : group_order) {
      const std::vector<const Row*>& rows = groups[key];
      GroupContext group{&rows};
      const Row representative = rows.empty() ? Row(scope.slots.size())
                                              : *rows.front();
      if (stmt.having != nullptr) {
        NIMBLE_ASSIGN_OR_RETURN(
            Value keep, Evaluate(*stmt.having, scope, representative, &group));
        if (!keep.Truthy()) continue;
      }
      Row out_row;
      out_row.reserve(stmt.items.size());
      for (const SelectItem& item : stmt.items) {
        NIMBLE_ASSIGN_OR_RETURN(
            Value v, Evaluate(*item.expr, scope, representative, &group));
        out_row.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out_row));
    }
  } else if (stmt.select_star) {
    for (const auto& [qualifier, column] : scope.slots) {
      result.columns.push_back(column);
    }
    result.rows = std::move(current);
  } else {
    for (const SelectItem& item : stmt.items) {
      result.columns.push_back(!item.alias.empty() ? item.alias
                                                   : item.expr->ToSql());
    }
    result.rows.reserve(current.size());
    for (const Row& row : current) {
      Row out_row;
      out_row.reserve(stmt.items.size());
      for (const SelectItem& item : stmt.items) {
        NIMBLE_ASSIGN_OR_RETURN(Value v,
                                Evaluate(*item.expr, scope, row, nullptr));
        out_row.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out_row));
    }
  }

  // ---- DISTINCT --------------------------------------------------------------
  if (stmt.distinct) {
    std::unordered_map<std::vector<Value>, bool, ValueVectorHash, ValueVectorEq>
        seen;
    std::vector<Row> unique_rows;
    for (Row& row : result.rows) {
      if (seen.try_emplace(row, true).second) {
        unique_rows.push_back(std::move(row));
      }
    }
    result.rows = std::move(unique_rows);
  }

  // ---- ORDER BY ---------------------------------------------------------------
  if (!stmt.order_by.empty()) {
    // Order keys may reference output aliases or input columns. Resolve
    // against output column names first, then re-evaluate on input rows is
    // not possible post-projection — so we evaluate keys against the output
    // row via alias lookup, falling back to expression text match.
    std::vector<size_t> key_slots;
    std::vector<bool> desc;
    for (const OrderKey& key : stmt.order_by) {
      std::string key_text = key.expr->ToSql();
      std::string bare =
          key.expr->kind == SqlExpr::Kind::kColumnRef ? key.expr->column : "";
      size_t slot = result.columns.size();
      for (size_t i = 0; i < result.columns.size(); ++i) {
        if (result.columns[i] == key_text ||
            (!bare.empty() && result.columns[i] == bare)) {
          slot = i;
          break;
        }
      }
      if (slot == result.columns.size()) {
        return Status::InvalidArgument(
            "ORDER BY key '" + key_text +
            "' must appear in the select list (subset restriction)");
      }
      key_slots.push_back(slot);
      desc.push_back(key.descending);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < key_slots.size(); ++k) {
                         int cmp = a[key_slots[k]].Compare(b[key_slots[k]]);
                         if (cmp != 0) return desc[k] ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
  }

  // ---- LIMIT -------------------------------------------------------------------
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }

  stats.rows_returned = result.rows.size();
  result.stats = stats;
  return result;
}

// Oracle edit: DELETE / UPDATE evaluate WHERE and SET with the row
// interpreter over every live row, then hand the chosen row ids to the
// same Table storage calls the planner uses.
Result<ResultSet> Execute(Database* db, std::string_view sql) {
  NIMBLE_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
  if (auto* select = std::get_if<SelectStmt>(&stmt)) return Select(*db, *select);
  const DeleteStmt* del = std::get_if<DeleteStmt>(&stmt);
  const UpdateStmt* update = std::get_if<UpdateStmt>(&stmt);
  if (del == nullptr && update == nullptr) return db->Execute(sql);
  const std::string& name = del != nullptr ? del->table : update->table;
  const SqlExpr* where = del != nullptr ? del->where.get() : update->where.get();
  Table* table = db->GetTable(name);
  if (table == nullptr) return Status::NotFound("no table '" + name + "'");
  const TableSchema& schema = table->schema();
  Scope scope;
  scope.AddTable(schema.name(), schema);
  std::vector<size_t> target_cols;
  if (update != nullptr) {
    for (const auto& [col, expr] : update->assignments) {
      std::optional<size_t> idx = schema.ColumnIndex(col);
      if (!idx.has_value()) {
        return Status::NotFound("no column '" + col + "' in table '" + name +
                                "'");
      }
      target_cols.push_back(*idx);
    }
  }
  std::vector<size_t> live;
  table->ForEachLiveRow([&](size_t id) { live.push_back(id); });
  std::vector<size_t> ids;
  std::vector<Row> rows;
  for (size_t id : live) {
    const Row old_row = RowAt(*table, id);
    if (where != nullptr) {
      NIMBLE_ASSIGN_OR_RETURN(Value v, Evaluate(*where, scope, old_row, nullptr));
      if (!v.Truthy()) continue;
    }
    ids.push_back(id);
    if (update == nullptr) continue;
    Row row = old_row;  // assignments see the old row values
    for (size_t a = 0; a < update->assignments.size(); ++a) {
      NIMBLE_ASSIGN_OR_RETURN(
          row[target_cols[a]],
          Evaluate(*update->assignments[a].second, scope, old_row, nullptr));
    }
    rows.push_back(std::move(row));
  }
  ResultSet rs;
  if (del != nullptr) {
    rs.stats.rows_returned = table->DeleteRows(ids);
  } else {
    NIMBLE_RETURN_IF_ERROR(table->UpdateRows(ids, std::move(rows)));
    rs.stats.rows_returned = ids.size();
  }
  return rs;
}

}  // namespace oracle
}  // namespace relational
}  // namespace nimble
