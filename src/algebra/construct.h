#ifndef NIMBLE_ALGEBRA_CONSTRUCT_H_
#define NIMBLE_ALGEBRA_CONSTRUCT_H_

#include <string>
#include <vector>

#include "algebra/operators.h"
#include "algebra/tuple.h"
#include "common/result.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace algebra {

/// The HashAggregate specs for a template's aggregate calls, one per
/// distinct (fn, variable), each output named by xmlql::AggregateOutputName.
/// Fails when a call's variable is not in `input`.
Result<std::vector<HashAggregate::Spec>> AggregateSpecs(
    const xmlql::TemplateNode& tmpl, const TupleSchema& input);

/// The variables a plan must produce for `query`'s CONSTRUCT (verifier
/// I10): the template's variables, or — for aggregations — the grouping
/// keys the template uses plus the aggregate outputs.
std::vector<std::string> ConstructInputs(const xmlql::Query& query);

/// Drains `plan` and instantiates the template per tuple, collecting the
/// instances under a root element named `root_name` in row order. Bindings
/// are read in place: scalar variables become typed text; node-valued
/// bindings are deep-cloned into place (ELEMENT_AS re-publication). This
/// is the top of every physical plan.
Result<NodePtr> ConstructResult(Operator* plan,
                                const xmlql::TemplateNode& tmpl,
                                const std::string& root_name = "results");

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_CONSTRUCT_H_
