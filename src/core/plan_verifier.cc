#include "core/plan_verifier.h"

#include <algorithm>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "algebra/pattern_match.h"
#include "core/sql_generator.h"
#include "relational/sql_ast.h"
#include "relational/sql_parser.h"

namespace nimble {
namespace core {

namespace {

Status Violation(const std::string& what) {
  return Status::Internal("fragmentation verifier: " + what);
}

/// F4 for one fragment: replay the engine's pushdown decision and check
/// both directions of the capability contract.
Status VerifySqlPushdown(const Fragment& fragment,
                         const connector::Connector& source,
                         const std::string& label) {
  const connector::SourceCapabilities caps = source.capabilities();
  Result<SqlTranslation> translation = TranslateFragmentToSql(fragment, caps);

  if (!caps.supports_sql) {
    if (translation.ok()) {
      return Violation("fragment " + label +
                       " translates to SQL but its source does not accept "
                       "SQL");
    }
    return Status::OK();
  }
  if (!translation.ok()) return Status::OK();  // fetch+match fallback

  // Round-trip: the emitted SELECT must parse with our own relational
  // parser, render back to the identical text, and project exactly the
  // columns the variable mapping promises.
  Result<relational::SqlStatement> reparsed =
      relational::ParseSql(translation->sql);
  if (!reparsed.ok()) {
    return Violation("fragment " + label + " emitted SQL that our parser "
                     "rejects: " +
                     reparsed.status().message() + " [" + translation->sql +
                     "]");
  }
  const auto* select = std::get_if<relational::SelectStmt>(&*reparsed);
  if (select == nullptr) {
    return Violation("fragment " + label +
                     " emitted SQL that is not a SELECT [" +
                     translation->sql + "]");
  }
  std::string rendered = select->ToSql();
  if (rendered != translation->sql) {
    return Violation("fragment " + label + " SQL does not round-trip: [" +
                     translation->sql + "] reparses as [" + rendered + "]");
  }
  if (select->select_star ||
      select->items.size() != translation->variables.size()) {
    return Violation("fragment " + label + " projects " +
                     std::to_string(select->items.size()) +
                     " columns for " +
                     std::to_string(translation->variables.size()) +
                     " variables [" + translation->sql + "]");
  }
  // Conditions folded into the WHERE clause must come from this fragment.
  for (const xmlql::Condition* pushed : translation->pushed_conditions) {
    if (std::find(fragment.local_conditions.begin(),
                  fragment.local_conditions.end(),
                  pushed) == fragment.local_conditions.end()) {
      return Violation("fragment " + label +
                       " pushed a condition it does not own");
    }
  }
  return Status::OK();
}

}  // namespace

Status CatalogResolver::Resolve(const xmlql::SourceRef& ref) const {
  if (ref.is_view()) {
    if (catalog_.view(ref.collection) == nullptr) {
      return Status::NotFound("no view or source named '" + ref.collection +
                              "'");
    }
    return Status::OK();
  }
  connector::Connector* source = catalog_.source(ref.source);
  if (source == nullptr) {
    return Status::NotFound("no source named '" + ref.source + "'");
  }
  // Only reject when the source positively enumerates its collections and
  // the referenced one is missing; an empty listing (source down, or no
  // listing support) is a runtime availability matter.
  std::vector<std::string> collections = source->Collections();
  if (!collections.empty() &&
      std::find(collections.begin(), collections.end(), ref.collection) ==
          collections.end()) {
    return Status::NotFound("source '" + ref.source + "' has no collection '" +
                            ref.collection + "'");
  }
  return Status::OK();
}

Status VerifyFragmentation(const xmlql::Query& query,
                           const Fragmentation& fragmentation,
                           const metadata::Catalog& catalog) {
  // F1: the fragments partition the query's patterns — every fragment
  // points at one of them, and each pattern is claimed exactly once.
  std::map<const xmlql::PatternClause*, int> pattern_claims;
  for (const xmlql::PatternClause& pattern : query.patterns) {
    pattern_claims[&pattern] = 0;
  }
  for (const Fragment& fragment : fragmentation.fragments) {
    if (fragment.pattern == nullptr) {
      return Violation("fragment with null pattern");
    }
    auto it = pattern_claims.find(fragment.pattern);
    if (it == pattern_claims.end()) {
      return Violation("fragment pattern <" + fragment.pattern->root.tag +
                       "> is not a pattern of this query");
    }
    ++it->second;
  }
  for (const auto& [pattern, claims] : pattern_claims) {
    if (claims != 1) {
      return Violation("pattern <" + pattern->root.tag + "> covered " +
                       std::to_string(claims) + " times (expected once)");
    }
  }

  // F2: local + cross conditions partition the query's conditions.
  std::map<const xmlql::Condition*, int> condition_claims;
  for (const xmlql::Condition& cond : query.conditions) {
    condition_claims[&cond] = 0;
  }
  auto claim = [&](const xmlql::Condition* cond,
                   const char* where) -> Status {
    auto it = condition_claims.find(cond);
    if (it == condition_claims.end()) {
      return Violation(std::string(where) +
                       " condition is not a condition of this query");
    }
    ++it->second;
    return Status::OK();
  };
  for (const Fragment& fragment : fragmentation.fragments) {
    for (const xmlql::Condition* cond : fragment.local_conditions) {
      NIMBLE_RETURN_IF_ERROR(claim(cond, "local"));
    }
  }
  for (const xmlql::Condition* cond : fragmentation.cross_conditions) {
    NIMBLE_RETURN_IF_ERROR(claim(cond, "cross"));
  }
  for (const auto& [cond, claims] : condition_claims) {
    if (claims != 1) {
      return Violation("condition" +
                       (cond->pos.known() ? " at " + cond->pos.ToString()
                                          : std::string()) +
                       " assigned " + std::to_string(claims) +
                       " times (expected once)");
    }
  }

  // F3 + F4 per fragment.
  for (const Fragment& fragment : fragmentation.fragments) {
    const xmlql::SourceRef& ref = fragment.pattern->source;
    const std::string label = ref.ToString();
    if (!(fragment.schema ==
          algebra::SchemaForPattern(fragment.pattern->root))) {
      return Violation(
          "fragment " + label + " schema " + fragment.schema.ToString() +
          " does not match its pattern (expected " +
          algebra::SchemaForPattern(fragment.pattern->root).ToString() + ")");
    }
    if (!ref.is_view()) {
      connector::Connector* source = catalog.source(ref.source);
      // A missing source is a semantic (resolver) error, not a
      // fragmentation defect; skip the pushdown replay.
      if (source != nullptr) {
        NIMBLE_RETURN_IF_ERROR(VerifySqlPushdown(fragment, *source, label));
      }
    }
  }
  return Status::OK();
}

Status VerifyCompiledProgram(const CompiledProgram& compiled,
                             const metadata::Catalog& catalog) {
  if (compiled.fragmentations.size() != compiled.program.branches.size()) {
    return Violation(
        std::to_string(compiled.fragmentations.size()) +
        " fragmentations for " +
        std::to_string(compiled.program.branches.size()) + " branches");
  }
  CatalogResolver resolver(catalog);
  xmlql::AnalysisOptions analysis;
  analysis.resolver = &resolver;
  analysis.strict = true;
  NIMBLE_RETURN_IF_ERROR(xmlql::AnalyzeProgram(compiled.program, analysis));
  for (size_t i = 0; i < compiled.program.branches.size(); ++i) {
    NIMBLE_RETURN_IF_ERROR(VerifyFragmentation(compiled.program.branches[i],
                                               compiled.fragmentations[i],
                                               catalog));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace nimble
