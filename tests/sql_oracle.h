#ifndef NIMBLE_TESTS_SQL_ORACLE_H_
#define NIMBLE_TESTS_SQL_ORACLE_H_

#include <string_view>

#include "common/result.h"
#include "relational/database.h"

namespace nimble {
namespace relational {
namespace oracle {

/// The row-at-a-time SQL interpreter src/relational/ ran before SQL was
/// planned onto the batch algebra: per-row name lookup, its own hash join,
/// aggregation, DISTINCT, sort and limit. It stays in tests/ as the oracle
/// of sql_differential_test until the option-equivalence fuzzer covers the
/// SQL path too; then it goes.
Result<ResultSet> Select(const Database& db, const SelectStmt& stmt);

/// Runs SELECT, DELETE and UPDATE with the interpreter; any other statement
/// goes to `db->Execute`.
Result<ResultSet> Execute(Database* db, std::string_view sql);

}  // namespace oracle
}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_TESTS_SQL_ORACLE_H_
