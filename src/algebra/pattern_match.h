#ifndef NIMBLE_ALGEBRA_PATTERN_MATCH_H_
#define NIMBLE_ALGEBRA_PATTERN_MATCH_H_

#include "algebra/tuple.h"
#include "common/result.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace algebra {

/// Builds the tuple schema for a pattern: one slot per bound variable, in
/// first-occurrence order.
TupleSchema SchemaForPattern(const xmlql::ElementPattern& pattern);

/// Matches `pattern` against the tree rooted at `tree`, producing one row
/// of `schema`-shaped columns per combination of matching sub-elements
/// (bag semantics, document order). Repeated variables unify: a binding
/// conflict drops the combination, and the binding of the first element in
/// pattern preorder is kept. The root pattern must match `tree` itself
/// unless it is a descendant pattern (`<//tag>`), which searches the whole
/// tree. Fails with InvalidArgument when a pattern variable has no slot in
/// `schema` or is bound both by ELEMENT_AS and as a scalar.
Result<TupleBatch> MatchPattern(const xmlql::ElementPattern& pattern,
                                const NodePtr& tree,
                                const TupleSchema& schema);

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_PATTERN_MATCH_H_
