#ifndef NIMBLE_XMLQL_AST_H_
#define NIMBLE_XMLQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xml/value.h"

namespace nimble {
namespace xmlql {

/// 1-based position of a syntactic element in the query text. {0,0} means
/// unknown (hand-built ASTs); parser-produced nodes always carry one, so
/// semantic diagnostics can cite the offending binding or condition.
struct SourcePos {
  int line = 0;
  int column = 0;

  bool known() const { return line > 0; }
  /// "line L, column C", or "unknown position".
  std::string ToString() const;
};

/// An attribute match inside an element pattern: either binds the attribute
/// value to a variable (`year=$y`) or constrains it to a literal
/// (`year="2001"`).
struct AttrPattern {
  std::string name;
  bool is_variable = false;
  std::string variable;  ///< without the '$'.
  Value literal;
};

/// One element of a WHERE pattern tree.
struct ElementPattern {
  std::string tag;          ///< element name; "*" matches any.
  bool descendant = false;  ///< written `<//tag>`: match at any depth.
  std::vector<AttrPattern> attributes;
  /// `$v` directly inside the element: binds the element's typed scalar.
  std::string content_variable;
  /// Literal content constraint (`<status>open</status>` inside a pattern).
  std::optional<Value> content_literal;
  /// `ELEMENT_AS $e`: binds the whole element node.
  std::string element_variable;
  std::vector<std::unique_ptr<ElementPattern>> children;
  SourcePos pos;  ///< of the opening '<'.

  /// Collects every variable bound anywhere in this subtree.
  void CollectVariables(std::vector<std::string>* out) const;
};

/// Where a pattern's data comes from: `IN "source:collection"` names a
/// registered source, `IN "view_name"` (no colon) names a mediated view —
/// the hierarchical-composition mechanism of §2.1.
struct SourceRef {
  std::string source;      ///< empty when referencing a mediated view.
  std::string collection;  ///< collection within the source, or view name.

  bool is_view() const { return source.empty(); }
  std::string ToString() const {
    return source.empty() ? collection : source + ":" + collection;
  }
};

/// One WHERE pattern: an element tree matched against one source/view.
struct PatternClause {
  ElementPattern root;
  SourceRef source;
  SourcePos pos;  ///< of the pattern's opening '<'.
};

/// A comparison between variables and/or literals.
struct Condition {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

  struct Operand {
    bool is_variable = false;
    std::string variable;
    Value literal;
  };

  Op op = Op::kEq;
  Operand lhs, rhs;
  SourcePos pos;  ///< of the first operand.

  /// Variables referenced by this condition.
  std::vector<std::string> Variables() const;
  static const char* OpName(Op op);
};

/// Aggregate functions usable inside CONSTRUCT templates, e.g.
/// `<n>count($x)</n>`. Their presence (or a GROUP BY clause) turns the
/// query into an aggregation.
enum class AggregateFn { kCount, kSum, kAvg, kMin, kMax };

const char* AggregateFnName(AggregateFn fn);

/// The plan variable that carries an aggregate call's result: "<fn>_<var>".
/// Semantic analysis keeps grouping keys from colliding with these names.
std::string AggregateOutputName(AggregateFn fn, const std::string& var);

/// CONSTRUCT template node.
struct TemplateNode {
  enum class Kind { kElement, kText, kVariable, kAggregate };

  struct Attr {
    std::string name;
    bool is_variable = false;
    std::string variable;
    Value literal;
  };

  Kind kind = Kind::kElement;
  std::string tag;       ///< kElement.
  std::vector<Attr> attributes;
  std::string variable;  ///< kVariable / kAggregate input (without '$').
  AggregateFn aggregate = AggregateFn::kCount;  ///< kAggregate.
  Value text;            ///< kText.
  std::vector<std::unique_ptr<TemplateNode>> children;
  SourcePos pos;

  void CollectVariables(std::vector<std::string>* out) const;
  bool ContainsAggregate() const;
  /// Variables used *outside* aggregate calls (must be grouping keys).
  void CollectNonAggregateVariables(std::vector<std::string>* out) const;
  /// Distinct (fn, variable) aggregate calls in the subtree.
  void CollectAggregates(
      std::vector<std::pair<AggregateFn, std::string>>* out) const;
};

struct OrderSpec {
  std::string variable;
  bool descending = false;
  SourcePos pos;
};

/// A parsed XML-QL query:
///   WHERE <pat>…</pat> IN "src:coll", …, $x > 5, …
///   CONSTRUCT <out>…$x…</out>
///   [ORDER BY $x [DESC], …] [LIMIT n]
struct Query {
  std::vector<PatternClause> patterns;
  std::vector<Condition> conditions;
  /// GROUP BY variables; may be empty even for aggregation (one global
  /// group, as in `SELECT COUNT(*)` without GROUP BY).
  std::vector<std::string> group_by;
  /// Positions parallel to `group_by` (empty for hand-built ASTs).
  std::vector<SourcePos> group_by_pos;
  std::unique_ptr<TemplateNode> construct;
  std::vector<OrderSpec> order_by;
  int64_t limit = -1;

  /// True when the query aggregates (GROUP BY present or the template
  /// contains aggregate calls).
  bool IsAggregation() const;

  /// All variables bound by the patterns.
  std::vector<std::string> BoundVariables() const;
};

/// A full XML-QL program: one or more queries combined with UNION.
/// Branch results are concatenated under one result root. UNION is the
/// unit of partial-results degradation (§3.4): when a branch's source is
/// down, the other branches can still answer.
struct Program {
  std::vector<Query> branches;
};

}  // namespace xmlql
}  // namespace nimble

#endif  // NIMBLE_XMLQL_AST_H_
