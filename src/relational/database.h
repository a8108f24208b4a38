#ifndef NIMBLE_RELATIONAL_DATABASE_H_
#define NIMBLE_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/sql_ast.h"
#include "relational/table.h"

namespace nimble {
namespace relational {

/// Execution statistics, surfaced so the federation experiments (E3) can
/// demonstrate index usage and scan volumes inside the source engine.
struct ExecStats {
  size_t rows_scanned = 0;   ///< base rows read (post-index pre-filter).
  size_t rows_returned = 0;  ///< result rows; rows changed, for DML.
  bool used_index = false;
  std::string index_name;
};

/// A query result: column names plus rows of scalars.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  ExecStats stats;
};

/// An in-memory relational database: a named collection of tables plus a
/// SQL front door. This is the substrate standing in for the commercial
/// RDBMS sources behind the Nimble mediator (see DESIGN.md substitutions).
class Database {
 public:
  explicit Database(std::string name = "db") : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  /// Creates a table from a schema object (programmatic path).
  Result<Table*> CreateTable(TableSchema schema);

  Table* GetTable(const std::string& table_name);
  const Table* GetTable(const std::string& table_name) const;

  std::vector<std::string> TableNames() const;

  /// Parses and executes any supported statement. DDL/DML return an empty
  /// ResultSet (rows_returned reflects affected rows for DML).
  Result<ResultSet> Execute(std::string_view sql);

  /// Executes a pre-parsed SELECT (the mediator path: the compiler builds a
  /// SelectStmt, serialises it to SQL for the wire, and the connector
  /// re-parses — this entry point is also used directly in tests). It is
  /// planned onto the physical algebra with names bound once, drained, and
  /// its rows emitted (relational/planner.cc, DESIGN.md §2k).
  Result<ResultSet> Query(const SelectStmt& stmt) const;

  /// Sum of all table versions; cheap staleness cookie for materialization.
  uint64_t Version() const;

 private:
  /// The named table, or NotFound.
  Result<Table*> FindTable(const std::string& table_name);

  /// DELETE / UPDATE find their rows through the SELECT access path (an
  /// index probe when WHERE allows one) and bound WHERE, and change nothing
  /// unless every row evaluates and validates (relational/planner.cc).
  static Result<ResultSet> Delete(Table* table, const DeleteStmt& stmt);
  static Result<ResultSet> Update(Table* table, const UpdateStmt& stmt);

  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_DATABASE_H_
