#ifndef NIMBLE_XMLQL_SEMANTIC_H_
#define NIMBLE_XMLQL_SEMANTIC_H_

#include "common/status.h"
#include "xmlql/ast.h"

namespace nimble {
namespace xmlql {

/// Resolves a pattern's `IN "source:collection"` reference against whatever
/// catalog the caller has. Implemented by core/plan_verifier's
/// CatalogResolver; semantic analysis itself stays catalog-agnostic so the
/// xmlql layer keeps no dependency on metadata.
class CollectionResolver {
 public:
  virtual ~CollectionResolver() = default;

  /// OK when `ref` names a known view or source collection; an error status
  /// (typically kNotFound) describing the problem otherwise. The analyzer
  /// re-wraps the error with the pattern's source position.
  [[nodiscard]] virtual Status Resolve(const SourceRef& ref) const = 0;
};

struct AnalysisOptions {
  /// When set, every pattern's source reference is resolved; dangling
  /// references become position-citing errors.
  const CollectionResolver* resolver = nullptr;
  /// Basic mode (the parser's Validate) checks structure, unbound
  /// variables, aggregation rules, and that no variable is bound both by
  /// ELEMENT_AS and as a scalar. Strict mode — run by the engine's plan
  /// verifier — adds duplicate ELEMENT_AS bindings, type-incompatible
  /// comparisons, and statically unsatisfiable conditions.
  bool strict = false;
};

/// Analyzes one query. Diagnostics cite source positions when the AST was
/// parser-produced (hand-built ASTs without positions still get checked,
/// just without the location suffix).
[[nodiscard]] Status AnalyzeQuery(const Query& query,
                                  const AnalysisOptions& options = {});

/// Analyzes every UNION branch of a program.
[[nodiscard]] Status AnalyzeProgram(const Program& program,
                                    const AnalysisOptions& options = {});

}  // namespace xmlql
}  // namespace nimble

#endif  // NIMBLE_XMLQL_SEMANTIC_H_
