#include "xmlql/ast.h"

#include <algorithm>

namespace nimble {
namespace xmlql {

std::string SourcePos::ToString() const {
  if (!known()) return "unknown position";
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

void ElementPattern::CollectVariables(std::vector<std::string>* out) const {
  for (const AttrPattern& attr : attributes) {
    if (attr.is_variable) out->push_back(attr.variable);
  }
  if (!content_variable.empty()) out->push_back(content_variable);
  if (!element_variable.empty()) out->push_back(element_variable);
  for (const auto& child : children) child->CollectVariables(out);
}

std::vector<std::string> Condition::Variables() const {
  std::vector<std::string> out;
  if (lhs.is_variable) out.push_back(lhs.variable);
  if (rhs.is_variable) out.push_back(rhs.variable);
  return out;
}

const char* Condition::OpName(Op op) {
  switch (op) {
    case Op::kEq:
      return "=";
    case Op::kNe:
      return "!=";
    case Op::kLt:
      return "<";
    case Op::kLe:
      return "<=";
    case Op::kGt:
      return ">";
    case Op::kGe:
      return ">=";
    case Op::kLike:
      return "LIKE";
  }
  return "?";
}

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "count";
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kAvg:
      return "avg";
    case AggregateFn::kMin:
      return "min";
    case AggregateFn::kMax:
      return "max";
  }
  return "?";
}

std::string AggregateOutputName(AggregateFn fn, const std::string& var) {
  return std::string(AggregateFnName(fn)) + "_" + var;
}

void TemplateNode::CollectVariables(std::vector<std::string>* out) const {
  if (kind == Kind::kVariable || kind == Kind::kAggregate) {
    out->push_back(variable);
  }
  for (const Attr& attr : attributes) {
    if (attr.is_variable) out->push_back(attr.variable);
  }
  for (const auto& child : children) child->CollectVariables(out);
}

bool TemplateNode::ContainsAggregate() const {
  if (kind == Kind::kAggregate) return true;
  for (const auto& child : children) {
    if (child->ContainsAggregate()) return true;
  }
  return false;
}

void TemplateNode::CollectNonAggregateVariables(
    std::vector<std::string>* out) const {
  if (kind == Kind::kVariable) out->push_back(variable);
  for (const Attr& attr : attributes) {
    if (attr.is_variable) out->push_back(attr.variable);
  }
  for (const auto& child : children) {
    child->CollectNonAggregateVariables(out);
  }
}

void TemplateNode::CollectAggregates(
    std::vector<std::pair<AggregateFn, std::string>>* out) const {
  if (kind == Kind::kAggregate) {
    std::pair<AggregateFn, std::string> call{aggregate, variable};
    if (std::find(out->begin(), out->end(), call) == out->end()) {
      out->push_back(call);
    }
  }
  for (const auto& child : children) child->CollectAggregates(out);
}

bool Query::IsAggregation() const {
  return !group_by.empty() ||
         (construct != nullptr && construct->ContainsAggregate());
}

std::vector<std::string> Query::BoundVariables() const {
  std::vector<std::string> out;
  for (const PatternClause& pattern : patterns) {
    pattern.root.CollectVariables(&out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace xmlql
}  // namespace nimble
