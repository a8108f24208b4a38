#include "algebra/pattern_match.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace nimble {
namespace algebra {

namespace {

using xmlql::AttrPattern;
using xmlql::ElementPattern;

constexpr size_t kNoSlot = static_cast<size_t>(-1);

/// Emitted rows are staged row-major in blocks of this many rows, then moved
/// into columns reserved once at the final row count (DESIGN.md §2g).
constexpr size_t kBlockRows = 64;

/// One pattern element with its variables resolved to slots. A pattern
/// compiles to its elements in preorder; each names its parent's step.
struct Step {
  const ElementPattern* pattern = nullptr;
  size_t parent = 0;  ///< step of the enclosing element (unused at the root).
  bool any_tag = false;
  /// Attribute tests in pattern order, each with the slot it binds, or
  /// kNoSlot when it compares against the literal.
  std::vector<std::pair<const AttrPattern*, size_t>> attributes;
  size_t content_slot = kNoSlot;
  size_t element_slot = kNoSlot;
};

/// Where a slot's current binding lives: a scalar inside the document (or in
/// a step's scratch value), or the NodePtr an ELEMENT_AS binding names. A
/// Binding is built from the view only when a row is emitted.
struct SlotView {
  const Value* scalar = nullptr;
  const NodePtr* node = nullptr;
};

Result<size_t> SlotFor(const std::string& variable, const TupleSchema& schema) {
  std::optional<size_t> slot = schema.SlotOf(variable);
  if (!slot.has_value()) {
    return Status::InvalidArgument("pattern variable $" + variable +
                                   " missing from tuple schema");
  }
  return *slot;
}

/// Appends `pattern`'s elements to `steps` in preorder.
Status Compile(const ElementPattern& pattern, size_t parent,
               const TupleSchema& schema, std::vector<Step>* steps) {
  Step step;
  step.pattern = &pattern;
  step.parent = parent;
  step.any_tag = pattern.tag == "*";
  for (const AttrPattern& attr : pattern.attributes) {
    size_t slot = kNoSlot;
    if (attr.is_variable) {
      NIMBLE_ASSIGN_OR_RETURN(slot, SlotFor(attr.variable, schema));
    }
    step.attributes.emplace_back(&attr, slot);
  }
  if (!pattern.content_variable.empty()) {
    NIMBLE_ASSIGN_OR_RETURN(step.content_slot,
                            SlotFor(pattern.content_variable, schema));
  }
  if (!pattern.element_variable.empty()) {
    NIMBLE_ASSIGN_OR_RETURN(step.element_slot,
                            SlotFor(pattern.element_variable, schema));
  }
  steps->push_back(std::move(step));
  const size_t self = steps->size() - 1;
  for (const auto& child : pattern.children) {
    NIMBLE_RETURN_IF_ERROR(Compile(*child, self, schema, steps));
  }
  return Status::OK();
}

/// Node bindings unify with nodes and scalars with scalars: a variable bound
/// both ways has no order-independent answer, and semantic analysis rejects
/// it (DESIGN.md §2f).
Status CheckBindingKinds(const std::vector<Step>& steps,
                         const TupleSchema& schema) {
  std::vector<bool> scalar(schema.size()), element(schema.size());
  for (const Step& step : steps) {
    for (const auto& [attr, slot] : step.attributes) {
      if (slot != kNoSlot) scalar[slot] = true;
    }
    if (step.content_slot != kNoSlot) scalar[step.content_slot] = true;
    if (step.element_slot != kNoSlot) element[step.element_slot] = true;
  }
  for (size_t slot = 0; slot < schema.size(); ++slot) {
    if (scalar[slot] && element[slot]) {
      return Status::InvalidArgument(
          "pattern variable $" + schema.variables()[slot] +
          " is bound both by ELEMENT_AS and as a scalar");
    }
  }
  return Status::OK();
}

/// Calls `visit` on every element below `node`, in document preorder.
template <typename Visit>
void ForEachDescendant(const Node& node, const Visit& visit) {
  for (const NodePtr& child : node.children()) {
    if (!child->is_element()) continue;
    visit(child);
    ForEachDescendant(*child, visit);
  }
}

const Value* FindAttribute(const Node& node, const std::string& name) {
  for (const auto& [attr_name, value] : node.attributes()) {
    if (attr_name == name) return &value;
  }
  return nullptr;
}

/// The element's Node::ScalarValue(), read in place for the common single
/// text child and computed into `scratch` otherwise.
const Value& ContentOf(const Node& node, Value* scratch) {
  const std::vector<NodePtr>& children = node.children();
  if (children.size() == 1 && children[0]->is_text()) {
    return children[0]->value();
  }
  *scratch = node.ScalarValue();
  return *scratch;
}

/// Enumerates a compiled pattern's matches depth-first over one row of slot
/// views. Step k is tried on each candidate under the node its parent step
/// matched; each consistent binding recurses into step k + 1, and a row is
/// emitted once every step has matched. Returning undoes the step's
/// bindings (the trail). Rows come out in the order of the steps' candidates,
/// compared in pattern preorder: later child patterns vary fastest.
class Matcher {
 public:
  Matcher(std::vector<Step> steps, size_t num_slots)
      : steps_(std::move(steps)),
        matched_(steps_.size()),
        scratch_(steps_.size()),
        row_(num_slots) {}

  void Run(const NodePtr& tree) {
    Try(0, tree);
    if (steps_[0].pattern->descendant) {
      ForEachDescendant(*tree, [this](const NodePtr& node) { Try(0, node); });
    }
  }

  /// Moves the staged rows into columns sized once.
  TupleBatch TakeBatch() {
    const size_t slots = row_.size();
    TupleBatch out(slots);
    out.Reserve(num_rows_);
    for (std::vector<Binding>& block : blocks_) {
      for (size_t row = 0; row < block.size(); row += slots) {
        for (size_t slot = 0; slot < slots; ++slot) {
          out.MutableColumn(slot).push_back(std::move(block[row + slot]));
        }
      }
    }
    out.SetNumRows(num_rows_);
    return out;
  }

 private:
  void Try(size_t step, const NodePtr& node) {
    const Step& s = steps_[step];
    if (!node->is_element()) return;
    if (!s.any_tag && node->name() != s.pattern->tag) return;
    const size_t mark = trail_.size();
    if (Bind(step, node, mark)) {
      matched_[step] = node.get();
      Extend(step + 1);
    }
    for (size_t i = mark; i < trail_.size(); ++i) row_[trail_[i]] = SlotView{};
    trail_.resize(mark);
  }

  void Extend(size_t step) {
    if (step == steps_.size()) {
      Emit();
      return;
    }
    const Node& parent = *matched_[steps_[step].parent];
    if (steps_[step].pattern->descendant) {
      ForEachDescendant(parent,
                        [this, step](const NodePtr& node) { Try(step, node); });
    } else {
      for (const NodePtr& child : parent.children()) Try(step, child);
    }
  }

  /// Runs the step's attribute and content tests on `node` and binds its
  /// variables; false when a test fails or a binding does not unify.
  bool Bind(size_t step, const NodePtr& node, size_t mark) {
    const Step& s = steps_[step];
    for (const auto& [attr, slot] : s.attributes) {
      const Value* actual = FindAttribute(*node, attr->name);
      if (actual == nullptr) return false;
      if (slot == kNoSlot ? *actual != attr->literal
                          : !BindScalar(slot, actual, mark)) {
        return false;
      }
    }
    const ElementPattern& pattern = *s.pattern;
    if (pattern.content_literal.has_value() || s.content_slot != kNoSlot) {
      const Value& content = ContentOf(*node, &scratch_[step]);
      if (pattern.content_literal.has_value() &&
          content != *pattern.content_literal) {
        return false;
      }
      if (s.content_slot != kNoSlot &&
          !BindScalar(s.content_slot, &content, mark)) {
        return false;
      }
    }
    return s.element_slot == kNoSlot || BindNode(s.element_slot, &node);
  }

  /// A slot bound by an earlier element keeps that binding, which `value`
  /// must unify with (Binding::EqualsForJoin: null never does). A slot this
  /// element bound already is checked and then takes `value`.
  bool BindScalar(size_t slot, const Value* value, size_t mark) {
    SlotView& bound = row_[slot];
    if (bound.scalar == nullptr) {
      bound.scalar = value;
      trail_.push_back(slot);
      return true;
    }
    if (bound.scalar->is_null() || value->is_null() ||
        *bound.scalar != *value) {
      return false;
    }
    if (std::find(trail_.begin() + static_cast<std::ptrdiff_t>(mark),
                  trail_.end(), slot) != trail_.end()) {
      bound.scalar = value;
    }
    return true;
  }

  /// An element has one ELEMENT_AS, so a bound slot is an earlier element's.
  bool BindNode(size_t slot, const NodePtr* node) {
    SlotView& bound = row_[slot];
    if (bound.node == nullptr) {
      bound.node = node;
      trail_.push_back(slot);
      return true;
    }
    return (*bound.node)->DeepEquals(**node);
  }

  void Emit() {
    ++num_rows_;
    if (row_.empty()) return;
    if (blocks_.empty() || blocks_.back().size() == kBlockRows * row_.size()) {
      blocks_.emplace_back().reserve(kBlockRows * row_.size());
    }
    std::vector<Binding>& block = blocks_.back();
    for (const SlotView& view : row_) {
      if (view.node != nullptr) {
        block.emplace_back(*view.node);
      } else if (view.scalar != nullptr) {
        block.emplace_back(*view.scalar);
      } else {
        block.emplace_back();
      }
    }
  }

  const std::vector<Step> steps_;
  std::vector<const Node*> matched_;  ///< node each step has matched
  std::vector<Value> scratch_;        ///< per step: computed element content
  std::vector<SlotView> row_;
  std::vector<size_t> trail_;  ///< slots bound so far, in binding order
  std::vector<std::vector<Binding>> blocks_;
  size_t num_rows_ = 0;
};

}  // namespace

TupleSchema SchemaForPattern(const xmlql::ElementPattern& pattern) {
  std::vector<std::string> variables;
  pattern.CollectVariables(&variables);
  TupleSchema schema;
  for (const std::string& var : variables) schema.AddVariable(var);
  return schema;
}

Result<TupleBatch> MatchPattern(const xmlql::ElementPattern& pattern,
                                const NodePtr& tree,
                                const TupleSchema& schema) {
  std::vector<Step> steps;
  NIMBLE_RETURN_IF_ERROR(Compile(pattern, 0, schema, &steps));
  NIMBLE_RETURN_IF_ERROR(CheckBindingKinds(steps, schema));
  Matcher matcher(std::move(steps), schema.size());
  matcher.Run(tree);
  return matcher.TakeBatch();
}

}  // namespace algebra
}  // namespace nimble
