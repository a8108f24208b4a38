#ifndef NIMBLE_RELATIONAL_SQL_PARSER_H_
#define NIMBLE_RELATIONAL_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "relational/sql_ast.h"

namespace nimble {
namespace relational {

/// Parses one SQL statement of the supported subset:
///   SELECT [DISTINCT] items FROM t [AS a] (JOIN t2 ON cond)* [WHERE cond]
///     [GROUP BY cols [HAVING cond]] [ORDER BY keys] [LIMIT n]
///   INSERT INTO t [(cols)] VALUES (…), (…)
///   CREATE TABLE t (col TYPE [PRIMARY KEY], …)
///   CREATE INDEX name ON t (col)
///   DELETE FROM t [WHERE cond]
///   UPDATE t SET col = expr, … [WHERE cond]
Result<SqlStatement> ParseSql(std::string_view sql);

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_SQL_PARSER_H_
