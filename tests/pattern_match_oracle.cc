// The cartesian-product pattern matcher that src/algebra/pattern_match.cc
// ran before the depth-first matcher, kept verbatim as the oracle of
// pattern_match_differential_test.

#include "pattern_match_oracle.h"

namespace nimble {
namespace algebra {
namespace oracle {

namespace {

using xmlql::ElementPattern;

/// One combination of bindings for a record being matched, one entry per
/// schema slot. Partials combine row-wise while a record's child patterns
/// unify; only finished rows leave the matcher, as batch columns.
using Partial = std::vector<Binding>;

/// Merges `from` into `into`; false on a unification conflict.
bool MergePartial(const Partial& from, Partial* into) {
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i].is_unset()) continue;
    if ((*into)[i].is_unset()) {
      (*into)[i] = from[i];
    } else if (!(*into)[i].EqualsForJoin(from[i])) {
      return false;
    }
  }
  return true;
}

/// Collects descendants of `node` matching `tag` at any depth.
void MatchingDescendants(const Node& node, const std::string& tag,
                         std::vector<NodePtr>* out) {
  for (const NodePtr& child : node.children()) {
    if (!child->is_element()) continue;
    if (tag == "*" || child->name() == tag) out->push_back(child);
    MatchingDescendants(*child, tag, out);
  }
}

/// Matches one pattern element against one concrete node. Appends every
/// consistent binding combination to `out` (each of size schema.size()).
void MatchElement(const ElementPattern& pattern, const NodePtr& node,
                  const TupleSchema& schema, std::vector<Partial>* out) {
  if (!node->is_element()) return;
  if (pattern.tag != "*" && node->name() != pattern.tag) return;

  Partial base(schema.size());

  // Attribute constraints and bindings.
  for (const xmlql::AttrPattern& attr : pattern.attributes) {
    if (!node->HasAttribute(attr.name)) return;
    Value actual = node->GetAttribute(attr.name);
    if (attr.is_variable) {
      size_t slot = *schema.SlotOf(attr.variable);
      Binding binding{actual};
      if (!base[slot].is_unset() && !base[slot].EqualsForJoin(binding)) return;
      base[slot] = std::move(binding);
    } else if (actual != attr.literal) {
      return;
    }
  }

  // Content constraints/bindings.
  if (pattern.content_literal.has_value()) {
    if (node->ScalarValue() != *pattern.content_literal) return;
  }
  if (!pattern.content_variable.empty()) {
    size_t slot = *schema.SlotOf(pattern.content_variable);
    Binding binding{node->ScalarValue()};
    if (!base[slot].is_unset() && !base[slot].EqualsForJoin(binding)) return;
    base[slot] = std::move(binding);
  }
  if (!pattern.element_variable.empty()) {
    size_t slot = *schema.SlotOf(pattern.element_variable);
    base[slot] = Binding{node};
  }

  // Child patterns: cartesian combination with unification.
  std::vector<Partial> partials = {std::move(base)};
  for (const auto& child_pattern : pattern.children) {
    // Candidate nodes for this child pattern.
    std::vector<NodePtr> candidates;
    if (child_pattern->descendant) {
      MatchingDescendants(*node, child_pattern->tag, &candidates);
    } else {
      for (const NodePtr& child : node->children()) {
        if (child->is_element() &&
            (child_pattern->tag == "*" ||
             child->name() == child_pattern->tag)) {
          candidates.push_back(child);
        }
      }
    }
    // Combinations produced by the child pattern across all candidates.
    std::vector<Partial> child_partials;
    for (const NodePtr& candidate : candidates) {
      MatchElement(*child_pattern, candidate, schema, &child_partials);
    }
    if (child_partials.empty()) return;  // required child missing

    std::vector<Partial> next;
    next.reserve(partials.size() * child_partials.size());
    for (const Partial& partial : partials) {
      for (const Partial& child_partial : child_partials) {
        Partial merged = partial;
        if (MergePartial(child_partial, &merged)) {
          next.push_back(std::move(merged));
        }
      }
    }
    if (next.empty()) return;
    partials = std::move(next);
  }

  for (Partial& partial : partials) out->push_back(std::move(partial));
}

}  // namespace

Result<TupleBatch> MatchPattern(const xmlql::ElementPattern& pattern,
                                const NodePtr& tree,
                                const TupleSchema& schema) {
  // Verify every pattern variable has a slot.
  std::vector<std::string> variables;
  pattern.CollectVariables(&variables);
  for (const std::string& var : variables) {
    if (!schema.SlotOf(var).has_value()) {
      return Status::InvalidArgument("pattern variable $" + var +
                                     " missing from tuple schema");
    }
  }
  std::vector<Partial> rows;
  if (pattern.descendant) {
    std::vector<NodePtr> candidates;
    if (pattern.tag == "*" || tree->name() == pattern.tag) {
      candidates.push_back(tree);
    }
    MatchingDescendants(*tree, pattern.tag, &candidates);
    for (const NodePtr& candidate : candidates) {
      MatchElement(pattern, candidate, schema, &rows);
    }
  } else {
    MatchElement(pattern, tree, schema, &rows);
  }
  // Move the finished rows into columns, keeping document order.
  TupleBatch out(schema.size());
  out.Reserve(rows.size());
  for (Partial& row : rows) {
    for (size_t slot = 0; slot < row.size(); ++slot) {
      out.MutableColumn(slot).push_back(std::move(row[slot]));
    }
  }
  out.SetNumRows(rows.size());
  return out;
}

}  // namespace oracle
}  // namespace algebra
}  // namespace nimble
