#ifndef NIMBLE_CORE_SQL_GENERATOR_H_
#define NIMBLE_CORE_SQL_GENERATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "connector/connector.h"
#include "core/fragmenter.h"

namespace nimble {
namespace core {

/// The SQL produced for one fragment, plus the mapping back to variables.
struct SqlTranslation {
  std::string sql;  ///< SELECT text sent over the "wire" to the source.
  /// Output column i of the result set binds variables[i].
  std::vector<std::string> variables;
  /// Local conditions folded into the SQL WHERE clause (already applied;
  /// the mediator must not re-apply them — though doing so is harmless).
  std::vector<const xmlql::Condition*> pushed_conditions;
  /// True when some pushed predicate column has a source-side index
  /// (informational; surfaced in execution reports).
  bool predicate_hits_index = false;
  /// Variables constrained by pushed bind-join IN lists.
  std::vector<std::string> bound_variables;
  /// ORDER BY / LIMIT folded into the SQL (single-fragment fast path).
  bool order_pushed = false;
  bool limit_pushed = false;
};

/// Top-of-query clauses eligible for single-fragment pushdown.
struct TopLevelPushdown {
  const std::vector<xmlql::OrderSpec>* order_by = nullptr;
  int64_t limit = -1;
};

/// Join-key values already known from other fragments, pushable as
/// `col IN (…)` semijoin filters (bind join — the distributed-mediator
/// optimization of Adali et al., the paper's [1]). Values must be the
/// *complete* distinct set for the variable; nulls are skipped (they never
/// equi-join).
using BindValues = std::map<std::string, std::vector<Value>>;

/// Translates a fragment over a SQL-capable source into a SELECT, per the
/// paper §2.1: "if an RDB is being queried, then the compiler generates
/// SQL", considering "the type of the underlying source, information
/// concerning the layout of the data within the sources, and the presence
/// of indices".
///
/// The pattern must be *table-shaped*:
///   <collection>            — root tag is arbitrary, FROM uses the
///     <record>              — exactly one record-level pattern
///       <field>$v</field>   — flat fields binding content variables
///       <field>literal</field> — or constraining literals
///     </record>
///   </collection>
/// Anything else (attributes, nesting, descendant steps, ELEMENT_AS)
/// returns kUnsupported and the engine falls back to fetch-and-match.
///
/// Local conditions are pushed when the source `supports_predicates`.
/// `top` (nullable) carries ORDER BY / LIMIT when the fragment is the
/// whole query (single fragment, no cross conditions, no aggregation):
/// ORDER BY is pushed when every key maps to a column; LIMIT additionally
/// requires that every local condition was pushed (a mediator-side
/// residual filter after a source-side LIMIT would drop rows).
Result<SqlTranslation> TranslateFragmentToSql(
    const Fragment& fragment, const connector::SourceCapabilities& caps,
    const BindValues* bind_values = nullptr,
    const TopLevelPushdown* top = nullptr);

}  // namespace core
}  // namespace nimble

#endif  // NIMBLE_CORE_SQL_GENERATOR_H_
