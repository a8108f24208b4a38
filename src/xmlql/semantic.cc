#include "xmlql/semantic.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace nimble {
namespace xmlql {

namespace {

/// " (line L, column C)" when the position is known, else "".
std::string AtPos(const SourcePos& pos) {
  if (!pos.known()) return "";
  return " (" + pos.ToString() + ")";
}

/// One variable binding introduced by a WHERE pattern. Scalar bindings
/// (attribute / content) may repeat across patterns — that spelling *is*
/// the join syntax — but element bindings (ELEMENT_AS) are node-valued and
/// must be unique.
struct BindingSite {
  std::string variable;
  bool is_element = false;
  SourcePos pos;  ///< of the element that introduces the binding.
};

void CollectBindingSites(const ElementPattern& pattern,
                         std::vector<BindingSite>* out) {
  for (const AttrPattern& attr : pattern.attributes) {
    if (attr.is_variable) out->push_back({attr.variable, false, pattern.pos});
  }
  if (!pattern.content_variable.empty()) {
    out->push_back({pattern.content_variable, false, pattern.pos});
  }
  if (!pattern.element_variable.empty()) {
    out->push_back({pattern.element_variable, true, pattern.pos});
  }
  for (const auto& child : pattern.children) {
    CollectBindingSites(*child, out);
  }
}

/// A variable use inside the CONSTRUCT template, with the nearest
/// position-carrying node.
struct UseSite {
  std::string variable;
  SourcePos pos;
};

void CollectTemplateUses(const TemplateNode& node, bool skip_aggregates,
                         std::vector<UseSite>* out) {
  if (node.kind == TemplateNode::Kind::kVariable ||
      (node.kind == TemplateNode::Kind::kAggregate && !skip_aggregates)) {
    out->push_back({node.variable, node.pos});
  }
  for (const TemplateNode::Attr& attr : node.attributes) {
    if (attr.is_variable) out->push_back({attr.variable, node.pos});
  }
  for (const auto& child : node.children) {
    CollectTemplateUses(*child, skip_aggregates, out);
  }
}

Status Unbound(const std::string& variable, const char* where,
               const SourcePos& pos) {
  return Status::ParseError("variable $" + variable + " used in " + where +
                            AtPos(pos) + " is not bound by any pattern");
}

/// Checks that hold for every well-formed query regardless of catalog:
/// structure, unbound variables, aggregation rules. This is what the
/// parser runs as Validate().
Status AnalyzeBasic(const Query& query,
                    const std::vector<BindingSite>& bindings) {
  if (query.patterns.empty()) {
    return Status::ParseError("query has no WHERE pattern");
  }
  if (query.construct == nullptr) {
    return Status::ParseError("query has no CONSTRUCT template");
  }

  std::set<std::string> bound;
  for (const BindingSite& site : bindings) bound.insert(site.variable);

  for (const Condition& cond : query.conditions) {
    for (const std::string& var : cond.Variables()) {
      if (bound.count(var) == 0) return Unbound(var, "a condition", cond.pos);
    }
  }
  std::vector<UseSite> template_uses;
  CollectTemplateUses(*query.construct, /*skip_aggregates=*/false,
                      &template_uses);
  for (const UseSite& use : template_uses) {
    if (bound.count(use.variable) == 0) {
      return Unbound(use.variable, "CONSTRUCT", use.pos);
    }
  }
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    if (bound.count(query.group_by[i]) == 0) {
      SourcePos pos =
          i < query.group_by_pos.size() ? query.group_by_pos[i] : SourcePos{};
      return Unbound(query.group_by[i], "GROUP BY", pos);
    }
  }
  for (const OrderSpec& spec : query.order_by) {
    if (bound.count(spec.variable) == 0) {
      return Unbound(spec.variable, "ORDER BY", spec.pos);
    }
  }

  // Aggregation semantics: every template/order variable used outside an
  // aggregate call must be a grouping key.
  if (query.IsAggregation()) {
    std::set<std::string> groups(query.group_by.begin(), query.group_by.end());
    std::vector<UseSite> plain_uses;
    CollectTemplateUses(*query.construct, /*skip_aggregates=*/true,
                        &plain_uses);
    for (const UseSite& use : plain_uses) {
      if (groups.count(use.variable) == 0) {
        return Status::ParseError(
            "variable $" + use.variable + " used outside an aggregate" +
            AtPos(use.pos) + " must appear in GROUP BY");
      }
    }
    for (const OrderSpec& spec : query.order_by) {
      if (groups.count(spec.variable) == 0) {
        return Status::ParseError("ORDER BY $" + spec.variable +
                                  AtPos(spec.pos) +
                                  " must be a GROUP BY variable in an "
                                  "aggregation");
      }
    }
    // The aggregate's output row is the grouping keys followed by one
    // column per aggregate call, named by AggregateOutputName: every name
    // must be distinct.
    std::vector<std::pair<AggregateFn, std::string>> calls;
    query.construct->CollectAggregates(&calls);
    std::set<std::string> seen;
    for (size_t i = 0; i < query.group_by.size(); ++i) {
      const std::string& var = query.group_by[i];
      SourcePos pos =
          i < query.group_by_pos.size() ? query.group_by_pos[i] : SourcePos{};
      if (!seen.insert(var).second) {
        return Status::ParseError("GROUP BY $" + var + AtPos(pos) +
                                  " is listed twice");
      }
      for (const auto& [fn, input] : calls) {
        if (AggregateOutputName(fn, input) == var) {
          return Status::ParseError("GROUP BY $" + var + AtPos(pos) +
                                    " is named like the output of " +
                                    AggregateFnName(fn) + "($" + input + ")");
        }
      }
    }
  }
  return Status::OK();
}

const char* TypeName(const Value& value) { return ValueTypeName(value.type()); }

/// Binding discipline. ELEMENT_AS bindings are node-valued, and a variable
/// bound both as an element and as a scalar is rejected in every mode: node
/// equality is DeepEquals but node-vs-scalar equality compares the node's
/// scalar view, so the relation is not transitive and which combinations
/// unify would depend on the order the matcher compares them in. Binding
/// one variable by ELEMENT_AS twice is well-defined (DeepEquals is an
/// equivalence) but useless as a join key, and only strict mode rejects it.
Status CheckBindingDiscipline(const std::vector<BindingSite>& bindings,
                              bool strict) {
  std::map<std::string, SourcePos> element_sites;
  std::map<std::string, SourcePos> scalar_sites;
  for (const BindingSite& site : bindings) {
    if (site.is_element) {
      auto [it, inserted] = element_sites.emplace(site.variable, site.pos);
      if (!inserted && strict) {
        return Status::ParseError(
            "variable $" + site.variable + " is bound by ELEMENT_AS twice" +
            AtPos(it->second) + AtPos(site.pos) +
            "; element bindings cannot be join keys");
      }
    } else {
      scalar_sites.emplace(site.variable, site.pos);
    }
  }
  for (const auto& [variable, pos] : element_sites) {
    auto scalar = scalar_sites.find(variable);
    if (scalar != scalar_sites.end()) {
      return Status::TypeError("variable $" + variable +
                               " is bound both as an element (ELEMENT_AS" +
                               AtPos(pos) + ") and as a scalar" +
                               AtPos(scalar->second));
    }
  }
  return Status::OK();
}

bool ComparisonHolds(Condition::Op op, int cmp) {
  switch (op) {
    case Condition::Op::kEq:
      return cmp == 0;
    case Condition::Op::kNe:
      return cmp != 0;
    case Condition::Op::kLt:
      return cmp < 0;
    case Condition::Op::kLe:
      return cmp <= 0;
    case Condition::Op::kGt:
      return cmp > 0;
    case Condition::Op::kGe:
      return cmp >= 0;
    case Condition::Op::kLike:
      return true;  // not const-evaluated
  }
  return true;
}

/// Strict-mode condition checks: LIKE typing, null comparisons,
/// literal-vs-literal constant evaluation, and conflicting equality pins.
Status CheckConditions(const Query& query) {
  // Variables pinned to a literal by an equality condition; a second pin to
  // a different literal makes the conjunction statically false.
  std::map<std::string, std::pair<Value, SourcePos>> pinned;

  for (const Condition& cond : query.conditions) {
    const bool lhs_lit = !cond.lhs.is_variable;
    const bool rhs_lit = !cond.rhs.is_variable;

    if (cond.op == Condition::Op::kLike) {
      if (rhs_lit && !cond.rhs.literal.is_string()) {
        return Status::TypeError(std::string("LIKE pattern must be a string, "
                                             "got ") +
                                 TypeName(cond.rhs.literal) + AtPos(cond.pos));
      }
      if (lhs_lit && !cond.lhs.literal.is_string()) {
        return Status::TypeError(
            std::string("LIKE subject must be a string, got ") +
            TypeName(cond.lhs.literal) + AtPos(cond.pos));
      }
      continue;
    }

    // Pattern-bound scalars are never null, so any comparison other than
    // != against a null literal can never hold.
    if (cond.op != Condition::Op::kNe && lhs_lit != rhs_lit) {
      const Value& lit = lhs_lit ? cond.lhs.literal : cond.rhs.literal;
      if (lit.is_null()) {
        return Status::ParseError(
            "statically unsatisfiable condition" + AtPos(cond.pos) +
            ": pattern-bound variables are never null");
      }
    }

    if (lhs_lit && rhs_lit) {
      const Value& a = cond.lhs.literal;
      const Value& b = cond.rhs.literal;
      if (a.type() != b.type() && !(a.is_numeric() && b.is_numeric())) {
        return Status::TypeError(std::string("type-incompatible comparison "
                                             "between ") +
                                 TypeName(a) + " and " + TypeName(b) +
                                 AtPos(cond.pos));
      }
      if (!ComparisonHolds(cond.op, a.Compare(b))) {
        return Status::ParseError(
            "statically unsatisfiable condition" + AtPos(cond.pos) + ": " +
            a.ToString() + " " + Condition::OpName(cond.op) + " " +
            b.ToString() + " is always false");
      }
      continue;
    }

    if (cond.op == Condition::Op::kEq && lhs_lit != rhs_lit) {
      const std::string& var =
          lhs_lit ? cond.rhs.variable : cond.lhs.variable;
      const Value& lit = lhs_lit ? cond.lhs.literal : cond.rhs.literal;
      auto it = pinned.find(var);
      if (it == pinned.end()) {
        pinned.emplace(var, std::make_pair(lit, cond.pos));
      } else if (it->second.first != lit) {
        return Status::ParseError(
            "statically unsatisfiable conjunction: $" + var +
            " is required to equal both " + it->second.first.ToString() +
            AtPos(it->second.second) + " and " + lit.ToString() +
            AtPos(cond.pos));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status AnalyzeQuery(const Query& query, const AnalysisOptions& options) {
  std::vector<BindingSite> bindings;
  for (const PatternClause& clause : query.patterns) {
    CollectBindingSites(clause.root, &bindings);
  }

  NIMBLE_RETURN_IF_ERROR(AnalyzeBasic(query, bindings));
  NIMBLE_RETURN_IF_ERROR(CheckBindingDiscipline(bindings, options.strict));
  if (options.strict) NIMBLE_RETURN_IF_ERROR(CheckConditions(query));

  if (options.resolver != nullptr) {
    for (const PatternClause& clause : query.patterns) {
      Status status = options.resolver->Resolve(clause.source);
      if (!status.ok()) {
        return Status(status.code(),
                      status.message() + AtPos(clause.pos));
      }
    }
  }
  return Status::OK();
}

Status AnalyzeProgram(const Program& program, const AnalysisOptions& options) {
  if (program.branches.empty()) {
    return Status::ParseError("program has no query branches");
  }
  for (size_t i = 0; i < program.branches.size(); ++i) {
    Status status = AnalyzeQuery(program.branches[i], options);
    if (!status.ok() && program.branches.size() > 1) {
      return Status(status.code(), "UNION branch " + std::to_string(i + 1) +
                                       ": " + status.message());
    }
    NIMBLE_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace xmlql
}  // namespace nimble
