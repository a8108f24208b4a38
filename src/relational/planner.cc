// SQL planning: SELECT, DELETE and UPDATE lowered onto the physical algebra.

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "algebra/operators.h"
#include "relational/database.h"

namespace nimble {
namespace relational {

namespace {

using algebra::Binding;
using algebra::BoundExpr;
using algebra::HashAggregate;
using algebra::Operator;
using algebra::TupleBatch;
using algebra::TupleSchema;
using Kind = SqlExpr::Kind;
using Op = BoundExpr::Op;

// ---- Names ------------------------------------------------------------------

/// The scope of one table: a slot per column, named `alias.column`.
TupleSchema TableScope(const TableSchema& schema, const std::string& alias) {
  TupleSchema scope;
  for (const Column& col : schema.columns()) {
    scope.AddVariable(alias + "." + col.name);
  }
  return scope;
}

/// Resolves a column reference against `alias.column` slots. Planner slots
/// ("#…") carry no '.' and never resolve.
Result<size_t> Resolve(const TupleSchema& scope, const std::string& qualifier,
                       const std::string& column) {
  const std::vector<std::string>& vars = scope.variables();
  std::optional<size_t> found;
  for (size_t i = 0; i < vars.size(); ++i) {
    const size_t dot = vars[i].find('.');
    if (dot == std::string::npos || vars[i].substr(dot + 1) != column ||
        (!qualifier.empty() && vars[i].compare(0, dot, qualifier) != 0)) {
      continue;
    }
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column reference '" + column +
                                     "'");
    }
    found = i;
  }
  if (found.has_value()) return *found;
  return Status::NotFound(
      "unknown column '" +
      (qualifier.empty() ? column : qualifier + "." + column) + "'");
}

/// Slots "#0".."#n-1" for planner-made columns.
TupleSchema NumberedSchema(size_t n) {
  TupleSchema schema;
  for (size_t i = 0; i < n; ++i) schema.AddVariable("#" + std::to_string(i));
  return schema;
}

// ---- Binding ----------------------------------------------------------------

/// The operators and scalar functions, by node kind and spelling.
struct OpSpelling {
  Kind kind;
  const char* spelling;
  Op op;
};
constexpr OpSpelling kOps[] = {
    {Kind::kUnary, "ISNULL", Op::kIsNull},
    {Kind::kUnary, "ISNOTNULL", Op::kIsNotNull},
    {Kind::kUnary, "NOT", Op::kNot},         {Kind::kUnary, "-", Op::kNeg},
    {Kind::kBinary, "AND", Op::kAnd},        {Kind::kBinary, "OR", Op::kOr},
    {Kind::kBinary, "LIKE", Op::kLike},      {Kind::kBinary, "=", Op::kEq},
    {Kind::kBinary, "!=", Op::kNe},          {Kind::kBinary, "<", Op::kLt},
    {Kind::kBinary, "<=", Op::kLe},          {Kind::kBinary, ">", Op::kGt},
    {Kind::kBinary, ">=", Op::kGe},          {Kind::kBinary, "+", Op::kAdd},
    {Kind::kBinary, "-", Op::kSub},          {Kind::kBinary, "*", Op::kMul},
    {Kind::kBinary, "/", Op::kDiv},          {Kind::kBinary, "%", Op::kMod},
    {Kind::kFunction, "IN", Op::kIn},        {Kind::kFunction, "ABS", Op::kAbs},
    {Kind::kFunction, "UPPER", Op::kUpper},
    {Kind::kFunction, "LOWER", Op::kLower},
    {Kind::kFunction, "LENGTH", Op::kLength},
};

/// May claim a subexpression before the generic binder sees it (the
/// aggregate planner maps group keys and aggregate calls to its output
/// slots); nullopt lets the generic binder continue.
using BindHook =
    std::function<Result<std::optional<BoundExpr>>(const SqlExpr&)>;

Result<BoundExpr> Bind(const SqlExpr& e, const TupleSchema& scope,
                       const BindHook& hook = nullptr) {
  if (hook) {
    NIMBLE_ASSIGN_OR_RETURN(std::optional<BoundExpr> claimed, hook(e));
    if (claimed.has_value()) return std::move(*claimed);
  }
  if (e.kind == Kind::kLiteral) return BoundExpr::Literal(e.literal);
  if (e.kind == Kind::kColumnRef) {
    NIMBLE_ASSIGN_OR_RETURN(size_t slot, Resolve(scope, e.qualifier, e.column));
    return BoundExpr::Slot(slot);
  }
  if (e.kind == Kind::kStar) {
    return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  if (e.IsAggregateCall()) {
    return Status::InvalidArgument("aggregate " + e.op +
                                   " outside aggregation context");
  }
  if (e.kind == Kind::kFunction && e.op != "IN" && e.args.size() != 1) {
    return Status::InvalidArgument(e.op + " expects one argument");
  }
  const OpSpelling* op = std::find_if(
      std::begin(kOps), std::end(kOps), [&e](const OpSpelling& o) {
        return o.kind == e.kind && e.op == o.spelling;
      });
  if (op == std::end(kOps)) {
    return Status::Unsupported((e.kind == Kind::kUnary    ? "unary operator "
                                : e.kind == Kind::kBinary ? "binary operator "
                                                          : "function ") +
                               e.op);
  }
  std::vector<BoundExpr> args;
  for (const auto& arg : e.args) {
    NIMBLE_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*arg, scope, hook));
    args.push_back(std::move(bound));
  }
  return BoundExpr::Call(op->op, std::move(args));
}

// ---- Operators --------------------------------------------------------------

/// Leaf over a Table: emits the candidate rows `row_ids` (an index probe's
/// hits, or every live row) batch_size() at a time, copied out of the
/// table's column arrays, so no whole table is materialized.
class TableScan : public Operator {
 public:
  TableScan(const Table& table, const std::string& alias,
            std::vector<size_t> row_ids)
      : table_(table),
        schema_(TableScope(table.schema(), alias)),
        row_ids_(std::move(row_ids)) {}

  const TupleSchema& schema() const override { return schema_; }
  const std::vector<size_t>& row_ids() const { return row_ids_; }
  std::string label() const override {
    return "TableScan(" + table_.schema().name() + ", " +
           std::to_string(row_ids_.size()) + " rows)";
  }

 protected:
  Status DoOpen() override {
    position_ = 0;
    return Status::OK();
  }
  Result<std::optional<TupleBatch>> DoNextBatch() override {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    if (position_ >= row_ids_.size()) return std::optional<TupleBatch>{};
    const size_t n = std::min(batch_size(), row_ids_.size() - position_);
    TupleBatch out(schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      std::vector<Binding>& column = out.MutableColumn(c);
      column.reserve(n);
      for (size_t k = position_; k < position_ + n; ++k) {
        column.emplace_back(table_.at(row_ids_[k], c));
      }
    }
    out.SetNumRows(n);
    position_ += n;
    return std::optional<TupleBatch>(std::move(out));
  }
  void DoClose() override {}

 private:
  const Table& table_;
  TupleSchema schema_;
  std::vector<size_t> row_ids_;
  size_t position_ = 0;
};

/// π over bound SQL expressions: one slot "#i" per expression, computed one
/// child batch at a time.
class Project : public Operator {
 public:
  Project(std::unique_ptr<Operator> child, std::vector<BoundExpr> exprs)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(NumberedSchema(exprs_.size())) {
    AddChild(child_.get());
  }

  const TupleSchema& schema() const override { return schema_; }
  std::string label() const override { return "SqlProject"; }

 protected:
  Status DoOpen() override { return child_->Open(); }
  Result<std::optional<TupleBatch>> DoNextBatch() override {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch,
                            child_->NextBatch());
    if (!batch.has_value()) return batch;
    TupleBatch out(exprs_.size());
    for (size_t k = 0; k < exprs_.size(); ++k) {
      std::vector<Binding>& column = out.MutableColumn(k);
      column.reserve(batch->size());
      for (size_t i = 0; i < batch->size(); ++i) {
        NIMBLE_ASSIGN_OR_RETURN(
            Value v, algebra::Eval(exprs_[k], *batch, batch->PhysicalRow(i)));
        column.emplace_back(std::move(v));
      }
    }
    out.SetNumRows(batch->size());
    return std::optional<TupleBatch>(std::move(out));
  }
  void DoClose() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<BoundExpr> exprs_;
  TupleSchema schema_;
};

// ---- Access path ------------------------------------------------------------

void CollectConjuncts(const SqlExpr* expr, std::vector<const SqlExpr*>* out) {
  if (expr->kind == Kind::kBinary && expr->op == "AND") {
    CollectConjuncts(expr->args[0].get(), out);
    CollectConjuncts(expr->args[1].get(), out);
  } else {
    out->push_back(expr);
  }
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

/// The row ids an index on `table` yields for the WHERE clause, or nullopt
/// when no conjunct can use one. The first equality or `IN (literals)`
/// conjunct on an indexed column wins (row-id order); otherwise `col OP
/// literal` range bounds accumulate on one indexed column (index order).
std::optional<std::vector<size_t>> ProbeIndex(
    const Table& table, const std::string& qualifier, const SqlExpr* where,
    const std::vector<const TableSchema*>& join_schemas,
    const OrderedIndex** used) {
  static const std::pair<const char*, const char*> kFlipped[] = {
      {"=", "="}, {"<", ">"}, {"<=", ">="}, {">", "<"}, {">=", "<="}};
  std::vector<const SqlExpr*> conjuncts;
  if (where != nullptr) CollectConjuncts(where, &conjuncts);
  const OrderedIndex* range_index = nullptr;
  Value lo, hi;  // null = open
  bool lo_inclusive = true, hi_inclusive = true;
  for (const SqlExpr* conjunct : conjuncts) {
    const bool in_list =
        conjunct->kind == Kind::kFunction && conjunct->op == "IN";
    if (!in_list && conjunct->kind != Kind::kBinary) continue;
    // The column operand first: `lit OP col` becomes `col OP' lit`.
    std::vector<const SqlExpr*> operands;
    operands.reserve(conjunct->args.size());
    for (const auto& arg : conjunct->args) operands.push_back(arg.get());
    std::string op = conjunct->op;
    if (!in_list) {
      const auto* flip = std::find_if(
          std::begin(kFlipped), std::end(kFlipped),
          [&op](const auto& f) { return op == f.first; });
      if (flip == std::end(kFlipped)) continue;
      if (operands[0]->kind == Kind::kLiteral) {
        std::swap(operands[0], operands[1]);
        op = flip->second;
      }
    }
    if (operands[0]->kind != Kind::kColumnRef ||
        !RefersToProbedTable(*operands[0], qualifier, join_schemas)) {
      continue;
    }
    const OrderedIndex* index = table.FindIndexOn(operands[0]->column);
    std::vector<Value> keys;
    for (size_t i = 1; i < operands.size(); ++i) {
      if (operands[i]->kind != Kind::kLiteral) index = nullptr;
      keys.push_back(operands[i]->literal);
    }
    if (index == nullptr || keys.empty()) continue;
    if (in_list || op == "=") {
      std::vector<size_t> ids;
      for (const Value& key : keys) {
        std::vector<size_t> hits = index->Lookup(key);
        ids.insert(ids.end(), hits.begin(), hits.end());
      }
      // A duplicated IN-list value must not duplicate rows.
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      *used = index;
      return ids;
    }
    if (range_index != nullptr && range_index != index) continue;
    range_index = index;
    if (op == "<" || op == "<=") {
      if (hi.is_null() || keys[0].Compare(hi) < 0) {
        hi = keys[0];
        hi_inclusive = op == "<=";
      }
    } else if (lo.is_null() || keys[0].Compare(lo) > 0) {
      lo = keys[0];
      lo_inclusive = op == ">=";
    }
  }
  // An index matched with no bound extracted serves nothing.
  if (range_index == nullptr || (lo.is_null() && hi.is_null())) {
    return std::nullopt;
  }
  *used = range_index;
  return range_index->Range(lo, lo_inclusive, hi, hi_inclusive);
}

/// The source's index choice for one table: a TableScan over the live rows
/// an index probe yields, or over every live row. The WHERE clause is still
/// applied in full above it, so restricting the scan by one sargable
/// conjunct is safe even when joins follow — as long as the conjunct
/// unambiguously binds to this table.
std::unique_ptr<TableScan> AccessPath(
    const Table& table, const std::string& alias, const SqlExpr* where,
    const std::vector<const TableSchema*>& join_schemas, ExecStats* stats) {
  const OrderedIndex* index = nullptr;
  std::optional<std::vector<size_t>> hits =
      ProbeIndex(table, alias, where, join_schemas, &index);
  std::vector<size_t> row_ids;
  if (hits.has_value()) {
    for (size_t id : *hits) {
      if (table.IsLive(id)) row_ids.push_back(id);
    }
    stats->used_index = true;
    stats->index_name = index->name();
  } else {
    row_ids.reserve(table.size());
    table.ForEachLiveRow([&](size_t id) { row_ids.push_back(id); });
  }
  stats->rows_scanned += row_ids.size();
  return std::make_unique<TableScan>(table, alias, std::move(row_ids));
}

// ---- SELECT planning --------------------------------------------------------

/// Plans one JOIN clause over `left`. Equi conjuncts (`l = r`, one side a
/// column of the joined table, the other resolving on the left) become a
/// HashJoin's key pairs, the rest a filter above it; with no equi conjunct
/// the whole ON condition filters a NestedLoopJoin. A LEFT JOIN runs as an
/// inner join over numbered left rows, then pads the unmatched ones with
/// nulls and stable-sorts by number, restoring the left input's order.
Result<std::unique_ptr<Operator>> PlanJoin(std::unique_ptr<Operator> left,
                                           const JoinClause& join,
                                           const Table& table, size_t ordinal,
                                           ExecStats* stats) {
  const std::string& alias = join.table.EffectiveName();
  std::unique_ptr<Operator> right =
      AccessPath(table, alias, nullptr, {}, stats);
  TupleBatch left_rows;
  size_t pos_slot = 0;
  if (join.left_outer) {
    NIMBLE_ASSIGN_OR_RETURN(TupleBatch drained, left->Drain());
    TupleSchema numbered = left->schema();
    pos_slot = numbered.AddVariable("#pos" + std::to_string(ordinal));
    left_rows = TupleBatch(numbered.size());
    for (size_t s = 0; s < pos_slot; ++s) {
      left_rows.MutableColumn(s) = std::move(drained.MutableColumn(s));
    }
    for (size_t i = 0; i < drained.num_rows(); ++i) {
      left_rows.MutableColumn(pos_slot).emplace_back(
          Value::Int(static_cast<int64_t>(i)));
    }
    left_rows.SetNumRows(drained.num_rows());
    left = std::make_unique<algebra::MaterializedScan>(
        std::move(numbered), left_rows, "left join input");
  }

  const TupleSchema scope = left->schema().Merge(right->schema());
  std::vector<std::pair<size_t, size_t>> keys;
  // The non-key conjuncts, ANDed in ON-clause order: one predicate keeps
  // their row-at-a-time evaluation order.
  std::optional<BoundExpr> residual;
  std::vector<const SqlExpr*> conjuncts;
  CollectConjuncts(join.condition.get(), &conjuncts);
  for (const SqlExpr* conjunct : conjuncts) {
    bool handled = false;
    if (conjunct->kind == Kind::kBinary && conjunct->op == "=" &&
        conjunct->args[0]->kind == Kind::kColumnRef &&
        conjunct->args[1]->kind == Kind::kColumnRef) {
      for (int flip = 0; flip < 2 && !handled; ++flip) {
        const SqlExpr& l = *conjunct->args[flip];
        const SqlExpr& r = *conjunct->args[1 - flip];
        if (!r.qualifier.empty() && r.qualifier != alias) continue;
        std::optional<size_t> rc = table.schema().ColumnIndex(r.column);
        Result<size_t> ls = Resolve(left->schema(), l.qualifier, l.column);
        if (!rc.has_value() || !ls.ok()) continue;
        keys.emplace_back(*ls, *rc);
        handled = true;
      }
    }
    if (!handled) {
      NIMBLE_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*conjunct, scope));
      if (residual.has_value()) {
        std::vector<BoundExpr> both;
        both.push_back(std::move(*residual));
        both.push_back(std::move(bound));
        bound = BoundExpr::Call(Op::kAnd, std::move(both));
      }
      residual = std::move(bound);
    }
  }

  std::unique_ptr<Operator> joined;
  if (!keys.empty()) {
    joined = std::make_unique<algebra::HashJoin>(std::move(left),
                                                 std::move(right), keys);
  } else {
    joined = std::make_unique<algebra::NestedLoopJoin>(std::move(left),
                                                       std::move(right));
  }
  if (residual.has_value()) {
    joined = std::make_unique<algebra::Filter>(
        std::move(joined), std::vector<BoundExpr>{std::move(*residual)});
  }
  if (!join.left_outer) return joined;

  NIMBLE_ASSIGN_OR_RETURN(TupleBatch rows, joined->Drain());
  std::vector<bool> matched(left_rows.num_rows(), false);
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    matched[static_cast<size_t>(rows.column(pos_slot)[i].AsScalar().AsInt())] =
        true;
  }
  size_t num_rows = rows.num_rows();
  for (size_t p = 0; p < matched.size(); ++p) {
    if (matched[p]) continue;
    for (size_t s = 0; s < rows.num_slots(); ++s) {
      rows.MutableColumn(s).push_back(
          s < left_rows.num_slots() ? left_rows.column(s)[p] : Binding());
    }
    ++num_rows;
  }
  rows.SetNumRows(num_rows);
  return std::unique_ptr<Operator>(std::make_unique<algebra::Sort>(
      std::make_unique<algebra::MaterializedScan>(joined->schema(),
                                                  std::move(rows), "left join"),
      std::vector<algebra::Sort::Key>{{pos_slot, false}}));
}

/// The select list as planned: user-visible column names, and the slots of
/// the current plan that hold them.
struct Output {
  std::vector<std::string> columns;
  std::vector<size_t> slots;
};

/// Plans an aggregate query's grouping under its select list: a projection
/// computes the group keys and aggregate inputs ("#0".."#n"), HashAggregate
/// groups them, and HAVING filters the groups. `calls` are the aggregate
/// calls the select list and HAVING bound to the output slots after the
/// group keys.
Result<std::unique_ptr<Operator>> PlanGrouping(
    std::unique_ptr<Operator> plan, const SelectStmt& stmt,
    std::vector<BoundExpr> pre, const std::vector<const SqlExpr*>& calls,
    std::vector<BoundExpr> having) {
  static const std::pair<const char*, HashAggregate::Fn> kFns[] = {
      {"COUNT", HashAggregate::Fn::kCount}, {"SUM", HashAggregate::Fn::kSum},
      {"AVG", HashAggregate::Fn::kAvg},     {"MIN", HashAggregate::Fn::kMin},
      {"MAX", HashAggregate::Fn::kMax}};
  const TupleSchema& input = plan->schema();
  const size_t num_keys = stmt.group_by.size();
  std::vector<HashAggregate::Spec> specs;
  for (size_t j = 0; j < calls.size(); ++j) {
    const SqlExpr& call = *calls[j];
    HashAggregate::Spec spec{HashAggregate::Fn::kCount, "",
                             "#r" + std::to_string(j)};
    for (const auto& [name, fn] : kFns) {
      if (call.op == name) spec.fn = fn;
    }
    const bool count_star = spec.fn == HashAggregate::Fn::kCount &&
                            !call.args.empty() &&
                            call.args[0]->kind == Kind::kStar;
    if (!count_star) {
      if (call.args.empty()) {
        return Status::InvalidArgument(call.op + " requires an argument");
      }
      NIMBLE_ASSIGN_OR_RETURN(BoundExpr arg, Bind(*call.args[0], input));
      if (spec.fn == HashAggregate::Fn::kSum ||
          spec.fn == HashAggregate::Fn::kAvg) {
        std::vector<BoundExpr> numeric;
        numeric.push_back(std::move(arg));
        arg = BoundExpr::Call(Op::kNumeric, std::move(numeric));
      }
      spec.input_variable = "#" + std::to_string(pre.size());
      pre.push_back(std::move(arg));
    }
    specs.push_back(std::move(spec));
  }
  std::vector<std::string> keys = NumberedSchema(num_keys).variables();
  HashAggregate grouped(
      std::make_unique<Project>(std::move(plan), std::move(pre)), keys, specs);
  NIMBLE_ASSIGN_OR_RETURN(TupleBatch groups, grouped.Drain());
  if (num_keys == 0 && groups.num_rows() == 0) {
    // An aggregate without GROUP BY over no rows still yields one row.
    for (size_t j = 0; j < specs.size(); ++j) {
      groups.MutableColumn(j).emplace_back(
          specs[j].fn == HashAggregate::Fn::kCount ? Value::Int(0)
                                                   : Value::Null());
    }
    groups.SetNumRows(1);
  }
  plan = std::make_unique<algebra::MaterializedScan>(
      grouped.schema(), std::move(groups), "groups");
  if (having.empty()) return plan;
  return std::unique_ptr<Operator>(
      std::make_unique<algebra::Filter>(std::move(plan), std::move(having)));
}

/// Plans the select list. In an aggregate query (GROUP BY, HAVING or an
/// aggregate call) a select item or HAVING term must be a group key
/// (matched by SQL text, or a column reference to a grouped column) or sit
/// inside an aggregate. Bare, distinct slot references need no projection.
Result<std::unique_ptr<Operator>> PlanSelectList(
    std::unique_ptr<Operator> plan, const SelectStmt& stmt, Output* out) {
  bool aggregate = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    aggregate = aggregate || item.expr->ContainsAggregate();
  }
  const TupleSchema input = plan->schema();  // outlives `plan`'s subtree
  std::vector<BoundExpr> items;
  if (stmt.select_star) {
    if (aggregate) {
      return Status::InvalidArgument("SELECT * in an aggregate query");
    }
    for (size_t s = 0; s < input.size(); ++s) {
      const size_t dot = input.variables()[s].find('.');
      if (dot == std::string::npos) continue;
      out->columns.push_back(input.variables()[s].substr(dot + 1));
      items.push_back(BoundExpr::Slot(s));
    }
  }
  std::vector<BoundExpr> keys;
  std::vector<std::string> key_texts, call_texts;
  std::vector<const SqlExpr*> calls;
  for (const auto& g : stmt.group_by) {
    NIMBLE_ASSIGN_OR_RETURN(BoundExpr key, Bind(*g, input));
    keys.push_back(std::move(key));
    key_texts.push_back(g->ToSql());
  }
  BindHook hook = [&](const SqlExpr& e) -> Result<std::optional<BoundExpr>> {
    const std::string text = e.ToSql();
    auto key = std::find(key_texts.begin(), key_texts.end(), text);
    if (key != key_texts.end()) {
      return std::optional(
          BoundExpr::Slot(static_cast<size_t>(key - key_texts.begin())));
    }
    if (e.IsAggregateCall()) {
      auto call = std::find(call_texts.begin(), call_texts.end(), text);
      if (call == call_texts.end()) {
        calls.push_back(&e);
        call = call_texts.insert(call_texts.end(), text);
      }
      return std::optional(BoundExpr::Slot(
          keys.size() + static_cast<size_t>(call - call_texts.begin())));
    }
    if (e.kind != Kind::kColumnRef) return std::optional<BoundExpr>();
    NIMBLE_ASSIGN_OR_RETURN(size_t column,
                            Resolve(input, e.qualifier, e.column));
    for (size_t k = 0; k < keys.size(); ++k) {
      if (keys[k].op == Op::kSlot && keys[k].slot == column) {
        return std::optional(BoundExpr::Slot(k));
      }
    }
    return Status::InvalidArgument("column '" + text +
                                   "' must appear in GROUP BY or inside an "
                                   "aggregate");
  };
  for (const SelectItem& item : stmt.items) {
    out->columns.push_back(!item.alias.empty() ? item.alias
                                               : item.expr->ToSql());
    NIMBLE_ASSIGN_OR_RETURN(
        BoundExpr bound, Bind(*item.expr, input, aggregate ? hook : nullptr));
    items.push_back(std::move(bound));
  }
  if (aggregate) {
    std::vector<BoundExpr> having;
    if (stmt.having != nullptr) {
      NIMBLE_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*stmt.having, input, hook));
      having.push_back(std::move(bound));
    }
    NIMBLE_ASSIGN_OR_RETURN(
        std::unique_ptr<Operator> grouped,
        PlanGrouping(std::move(plan), stmt, std::move(keys), calls,
                     std::move(having)));
    plan = std::move(grouped);
  }

  std::set<size_t> bare;
  for (const BoundExpr& item : items) {
    if (item.op == Op::kSlot) bare.insert(item.slot);
  }
  if (bare.size() == items.size()) {
    for (const BoundExpr& item : items) out->slots.push_back(item.slot);
    return plan;
  }
  for (size_t i = 0; i < items.size(); ++i) out->slots.push_back(i);
  return std::unique_ptr<Operator>(
      std::make_unique<Project>(std::move(plan), std::move(items)));
}

// ---- DML --------------------------------------------------------------------

/// The rows of `table` a DML statement's WHERE selects, found through the
/// SELECT access path: fills `ids` and returns the rows' old values, active
/// row i holding row `ids[i]`.
Result<TupleBatch> MatchRows(const Table& table, const SqlExpr* where,
                             ExecStats* stats, std::vector<size_t>* ids) {
  std::unique_ptr<TableScan> scan =
      AccessPath(table, table.schema().name(), where, {}, stats);
  std::vector<BoundExpr> predicate;
  if (where != nullptr) {
    NIMBLE_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*where, scan->schema()));
    predicate.push_back(std::move(bound));
  }
  NIMBLE_ASSIGN_OR_RETURN(TupleBatch rows, scan->Drain());
  NIMBLE_RETURN_IF_ERROR(algebra::ApplyPredicates(predicate, &rows));
  for (size_t i = 0; i < rows.size(); ++i) {
    ids->push_back(scan->row_ids()[rows.PhysicalRow(i)]);
  }
  return rows;
}

}  // namespace

Result<ResultSet> Database::Query(const SelectStmt& stmt) const {
  const Table* base = GetTable(stmt.from.table);
  if (base == nullptr) {
    return Status::NotFound("no table '" + stmt.from.table + "' in database '" +
                            name_ + "'");
  }
  std::set<std::string> aliases = {stmt.from.EffectiveName()};
  std::vector<const Table*> joined;
  std::vector<const TableSchema*> join_schemas;
  for (const JoinClause& join : stmt.joins) {
    const Table* table = GetTable(join.table.table);
    if (table == nullptr) {
      return Status::NotFound("no table '" + join.table.table + "'");
    }
    if (!aliases.insert(join.table.EffectiveName()).second) {
      return Status::InvalidArgument("table name '" +
                                     join.table.EffectiveName() +
                                     "' specified more than once");
    }
    joined.push_back(table);
    join_schemas.push_back(&table->schema());
  }

  ExecStats stats;
  std::unique_ptr<Operator> plan = AccessPath(
      *base, stmt.from.EffectiveName(), stmt.where.get(), join_schemas, &stats);
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    NIMBLE_ASSIGN_OR_RETURN(
        std::unique_ptr<Operator> with_join,
        PlanJoin(std::move(plan), stmt.joins[j], *joined[j], j, &stats));
    plan = std::move(with_join);
  }
  if (stmt.where != nullptr) {
    std::vector<BoundExpr> where(1);
    NIMBLE_ASSIGN_OR_RETURN(where[0], Bind(*stmt.where, plan->schema()));
    plan = std::make_unique<algebra::Filter>(std::move(plan), std::move(where));
  }
  Output out;
  NIMBLE_ASSIGN_OR_RETURN(std::unique_ptr<Operator> selected,
                          PlanSelectList(std::move(plan), stmt, &out));
  plan = std::move(selected);
  if (stmt.distinct) {
    std::vector<std::string> vars;
    for (size_t& slot : out.slots) {
      vars.push_back(plan->schema().variables()[slot]);
      slot = vars.size() - 1;
    }
    plan = std::make_unique<HashAggregate>(std::move(plan), std::move(vars),
                                           std::vector<HashAggregate::Spec>{});
  }
  if (!stmt.order_by.empty()) {
    // ORDER BY keys name select-list columns: by alias or expression text,
    // or a column reference by its bare name.
    std::vector<algebra::Sort::Key> keys;
    for (const OrderKey& key : stmt.order_by) {
      const std::string text = key.expr->ToSql();
      const std::string bare =
          key.expr->kind == Kind::kColumnRef ? key.expr->column : "";
      size_t i = 0;
      while (i < out.columns.size() && out.columns[i] != text &&
             (bare.empty() || out.columns[i] != bare)) {
        ++i;
      }
      if (i == out.columns.size()) {
        return Status::InvalidArgument(
            "ORDER BY key '" + text +
            "' must appear in the select list (subset restriction)");
      }
      keys.push_back({out.slots[i], key.descending});
    }
    plan = std::make_unique<algebra::Sort>(std::move(plan), std::move(keys));
  }
  if (stmt.limit >= 0) {
    plan = std::make_unique<algebra::Limit>(std::move(plan),
                                            static_cast<size_t>(stmt.limit));
  }

  NIMBLE_ASSIGN_OR_RETURN(TupleBatch rows, plan->Drain());
  ResultSet result{std::move(out.columns), {}, std::move(stats)};
  result.rows.reserve(rows.num_rows());
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    Row& row = result.rows.emplace_back();
    row.reserve(out.slots.size());
    for (size_t slot : out.slots) {
      row.push_back(rows.column(slot)[i].AsScalar());
    }
  }
  result.stats.rows_returned = result.rows.size();
  return result;
}

Result<ResultSet> Database::Delete(Table* table, const DeleteStmt& stmt) {
  ResultSet rs;
  std::vector<size_t> ids;
  NIMBLE_RETURN_IF_ERROR(
      MatchRows(*table, stmt.where.get(), &rs.stats, &ids).status());
  rs.stats.rows_returned = table->DeleteRows(ids);
  return rs;
}

Result<ResultSet> Database::Update(Table* table, const UpdateStmt& stmt) {
  const TableSchema& schema = table->schema();
  const TupleSchema scope = TableScope(schema, schema.name());
  std::vector<std::pair<size_t, BoundExpr>> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    std::optional<size_t> idx = schema.ColumnIndex(col);
    if (!idx.has_value()) {
      return Status::NotFound("no column '" + col + "' in table '" +
                              stmt.table + "'");
    }
    NIMBLE_ASSIGN_OR_RETURN(BoundExpr value, Bind(*expr, scope));
    assignments.emplace_back(*idx, std::move(value));
  }
  ResultSet rs;
  std::vector<size_t> ids;
  NIMBLE_ASSIGN_OR_RETURN(TupleBatch old,
                          MatchRows(*table, stmt.where.get(), &rs.stats, &ids));
  std::vector<Row> rows(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    // Assignments see the old row values.
    const size_t phys = old.PhysicalRow(i);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      rows[i].push_back(old.column(c)[phys].AsScalar());
    }
    for (const auto& [col, value] : assignments) {
      NIMBLE_ASSIGN_OR_RETURN(rows[i][col], algebra::Eval(value, old, phys));
    }
  }
  NIMBLE_RETURN_IF_ERROR(table->UpdateRows(ids, std::move(rows)));
  rs.stats.rows_returned = ids.size();
  return rs;
}

}  // namespace relational
}  // namespace nimble
