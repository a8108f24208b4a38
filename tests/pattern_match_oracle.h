#ifndef NIMBLE_TESTS_PATTERN_MATCH_ORACLE_H_
#define NIMBLE_TESTS_PATTERN_MATCH_ORACLE_H_

#include "algebra/tuple.h"
#include "common/result.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace algebra {
namespace oracle {

/// The pattern matcher src/algebra/ ran before the depth-first one: each
/// element builds every binding combination of its subtree as a separate
/// row, child patterns combine by cartesian product with unification, and
/// the finished rows are copied into columns. It stays in tests/ as the
/// oracle of pattern_match_differential_test.
Result<TupleBatch> MatchPattern(const xmlql::ElementPattern& pattern,
                                const NodePtr& tree,
                                const TupleSchema& schema);

}  // namespace oracle
}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_TESTS_PATTERN_MATCH_ORACLE_H_
