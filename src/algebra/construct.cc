#include "algebra/construct.h"

namespace nimble {
namespace algebra {

namespace {

/// Instantiates `tmpl` for physical row `row` of `batch` under `parent`.
Status InstantiateInto(const xmlql::TemplateNode& tmpl,
                       const TupleSchema& schema, const TupleBatch& batch,
                       size_t row, Node* parent) {
  switch (tmpl.kind) {
    case xmlql::TemplateNode::Kind::kText:
      parent->AddChild(Node::Text(tmpl.text));
      return Status::OK();
    case xmlql::TemplateNode::Kind::kVariable: {
      std::optional<size_t> slot = schema.SlotOf(tmpl.variable);
      if (!slot.has_value()) {
        return Status::InvalidArgument("template variable $" + tmpl.variable +
                                       " not bound");
      }
      const Binding& binding = batch.column(*slot)[row];
      if (binding.is_node()) {
        parent->AddChild(binding.node()->Clone());
      } else {
        parent->AddChild(Node::Text(binding.AsScalar()));
      }
      return Status::OK();
    }
    case xmlql::TemplateNode::Kind::kAggregate: {
      std::string output =
          xmlql::AggregateOutputName(tmpl.aggregate, tmpl.variable);
      std::optional<size_t> slot = schema.SlotOf(output);
      if (!slot.has_value()) {
        return Status::InvalidArgument("aggregate " + output +
                                       " missing from plan output");
      }
      parent->AddChild(Node::Text(batch.column(*slot)[row].AsScalar()));
      return Status::OK();
    }
    case xmlql::TemplateNode::Kind::kElement: {
      NodePtr element = Node::Element(tmpl.tag);
      for (const xmlql::TemplateNode::Attr& attr : tmpl.attributes) {
        if (attr.is_variable) {
          std::optional<size_t> slot = schema.SlotOf(attr.variable);
          if (!slot.has_value()) {
            return Status::InvalidArgument("template variable $" +
                                           attr.variable + " not bound");
          }
          element->SetAttribute(attr.name, batch.column(*slot)[row].AsScalar());
        } else {
          element->SetAttribute(attr.name, attr.literal);
        }
      }
      Node* raw = element.get();
      parent->AddChild(std::move(element));
      for (const auto& child : tmpl.children) {
        NIMBLE_RETURN_IF_ERROR(InstantiateInto(*child, schema, batch, row, raw));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<std::vector<HashAggregate::Spec>> AggregateSpecs(
    const xmlql::TemplateNode& tmpl, const TupleSchema& input) {
  std::vector<std::pair<xmlql::AggregateFn, std::string>> calls;
  tmpl.CollectAggregates(&calls);
  std::vector<HashAggregate::Spec> specs;
  specs.reserve(calls.size());
  for (const auto& [fn, var] : calls) {
    if (!input.SlotOf(var).has_value()) {
      return Status::InvalidArgument("aggregate over unbound variable $" + var);
    }
    HashAggregate::Fn op = HashAggregate::Fn::kCount;
    switch (fn) {
      case xmlql::AggregateFn::kCount:
        op = HashAggregate::Fn::kCount;
        break;
      case xmlql::AggregateFn::kSum:
        op = HashAggregate::Fn::kSum;
        break;
      case xmlql::AggregateFn::kAvg:
        op = HashAggregate::Fn::kAvg;
        break;
      case xmlql::AggregateFn::kMin:
        op = HashAggregate::Fn::kMin;
        break;
      case xmlql::AggregateFn::kMax:
        op = HashAggregate::Fn::kMax;
        break;
    }
    specs.push_back(
        HashAggregate::Spec{op, var, xmlql::AggregateOutputName(fn, var)});
  }
  return specs;
}

std::vector<std::string> ConstructInputs(const xmlql::Query& query) {
  std::vector<std::string> required;
  if (!query.IsAggregation()) {
    query.construct->CollectVariables(&required);
    return required;
  }
  query.construct->CollectNonAggregateVariables(&required);
  std::vector<std::pair<xmlql::AggregateFn, std::string>> calls;
  query.construct->CollectAggregates(&calls);
  for (const auto& [fn, var] : calls) {
    required.push_back(xmlql::AggregateOutputName(fn, var));
  }
  return required;
}

Result<NodePtr> ConstructResult(Operator* plan, const xmlql::TemplateNode& tmpl,
                                const std::string& root_name) {
  NodePtr root = Node::Element(root_name);
  NIMBLE_RETURN_IF_ERROR(plan->Open());
  while (true) {
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch, plan->NextBatch());
    if (!batch.has_value()) break;
    for (size_t i = 0; i < batch->size(); ++i) {
      NIMBLE_RETURN_IF_ERROR(InstantiateInto(
          tmpl, plan->schema(), *batch, batch->PhysicalRow(i), root.get()));
    }
  }
  plan->Close();
  return root;
}

}  // namespace algebra
}  // namespace nimble
