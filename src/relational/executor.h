#ifndef NIMBLE_RELATIONAL_EXECUTOR_H_
#define NIMBLE_RELATIONAL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql_ast.h"
#include "relational/table.h"

namespace nimble {
namespace relational {

class Database;

/// Execution statistics, surfaced so the federation experiments (E3) can
/// demonstrate index usage and scan volumes inside the source engine.
struct ExecStats {
  size_t rows_scanned = 0;   ///< base rows read (post-index pre-filter).
  size_t rows_returned = 0;
  bool used_index = false;
  std::string index_name;
};

/// A query result: column names plus rows of scalars.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  ExecStats stats;
};

/// Executes a SELECT against `db`. The executor implements a
/// straightforward pipeline — index-assisted base access, hash/nested-loop
/// joins, filter, hash aggregation, sort, limit, projection — enough to be
/// a faithful "real RDBMS" endpoint for the mediator's generated SQL.
Result<ResultSet> ExecuteSelect(const Database& db, const SelectStmt& stmt);

/// Evaluates a non-aggregate expression against one row of `schema`
/// (column refs resolve unqualified or qualified by the table name).
/// Used by DELETE/UPDATE and by the mediator's residual predicates.
Result<Value> EvaluateRowExpression(const SqlExpr& expr,
                                    const TableSchema& schema, const Row& row);

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_EXECUTOR_H_
