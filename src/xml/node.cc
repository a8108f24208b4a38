#include "xml/node.h"

#include <cassert>

namespace nimble {

NodePtr Node::Element(std::string name) {
  NodePtr n(new Node(NodeKind::kElement));
  n->name_ = std::move(name);
  return n;
}

NodePtr Node::Text(Value value) {
  NodePtr n(new Node(NodeKind::kText));
  n->value_ = std::move(value);
  return n;
}

NodePtr Node::TextFromRaw(const std::string& raw) {
  return Text(Value::Infer(raw));
}

NodePtr Node::AddChild(NodePtr child) {
  assert(child != nullptr);
  assert(!frozen_ && "mutation of a frozen snapshot; Clone() first");
  assert(child->parent_ == nullptr && "child already has a parent");
  assert(!child->frozen_ && "attaching a frozen snapshot; Clone() first");
  child->parent_ = this;
  children_.push_back(child);
  return children_.back();
}

NodePtr Node::AddScalarChild(const std::string& name, Value value) {
  NodePtr elem = Element(name);
  elem->AddChild(Text(std::move(value)));
  return AddChild(std::move(elem));
}

void Node::SetAttribute(const std::string& name, Value value) {
  assert(!frozen_ && "mutation of a frozen snapshot; Clone() first");
  for (auto& [attr_name, attr_value] : attributes_) {
    if (attr_name == name) {
      attr_value = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(name, std::move(value));
}

void Node::RemoveChild(size_t index) {
  assert(!frozen_ && "mutation of a frozen snapshot; Clone() first");
  assert(index < children_.size());
  children_[index]->parent_ = nullptr;
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(index));
}

std::vector<NodePtr> Node::TakeChildren() {
  assert(!frozen_ && "mutation of a frozen snapshot; Clone() first");
  for (const NodePtr& child : children_) child->parent_ = nullptr;
  std::vector<NodePtr> out;
  out.swap(children_);
  return out;
}

NodePtr Node::FindChild(const std::string& name) const {
  for (const NodePtr& child : children_) {
    if (child->is_element() && child->name_ == name) return child;
  }
  return nullptr;
}

std::vector<NodePtr> Node::FindChildren(const std::string& name) const {
  std::vector<NodePtr> out;
  for (const NodePtr& child : children_) {
    if (child->is_element() && child->name_ == name) out.push_back(child);
  }
  return out;
}

Value Node::GetAttribute(const std::string& name) const {
  for (const auto& [attr_name, attr_value] : attributes_) {
    if (attr_name == name) return attr_value;
  }
  return Value::Null();
}

bool Node::HasAttribute(const std::string& name) const {
  for (const auto& [attr_name, attr_value] : attributes_) {
    if (attr_name == name) return true;
  }
  return false;
}

std::string Node::TextContent() const {
  if (is_text()) return value_.ToString();
  std::string out;
  for (const NodePtr& child : children_) {
    out += child->TextContent();
  }
  return out;
}

Value Node::ScalarValue() const {
  if (is_text()) return value_;
  if (children_.size() == 1 && children_[0]->is_text()) {
    return children_[0]->value_;
  }
  if (children_.empty()) return Value::Null();
  return Value::String(TextContent());
}

NodePtr Node::NextSibling() const {
  if (parent_ == nullptr) return nullptr;
  const auto& siblings = parent_->children_;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i].get() == this) {
      return i + 1 < siblings.size() ? siblings[i + 1] : nullptr;
    }
  }
  return nullptr;
}

NodePtr Node::PrevSibling() const {
  if (parent_ == nullptr) return nullptr;
  const auto& siblings = parent_->children_;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i].get() == this) {
      return i > 0 ? siblings[i - 1] : nullptr;
    }
  }
  return nullptr;
}

size_t Node::SubtreeSize() const {
  size_t total = 1;
  for (const NodePtr& child : children_) total += child->SubtreeSize();
  return total;
}

bool Node::DeepEquals(const Node& other) const {
  if (kind_ != other.kind_ || name_ != other.name_ || value_ != other.value_) {
    return false;
  }
  if (attributes_ != other.attributes_) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->DeepEquals(*other.children_[i])) return false;
  }
  return true;
}

NodePtr Node::Clone() const {
  NodePtr copy(new Node(kind_));
  copy->name_ = name_;
  copy->value_ = value_;
  copy->attributes_ = attributes_;
  copy->children_.reserve(children_.size());
  for (const NodePtr& child : children_) {
    NodePtr child_copy = child->Clone();
    child_copy->parent_ = copy.get();
    copy->children_.push_back(std::move(child_copy));
  }
  return copy;
}

ConstNodePtr Node::Freeze() {
  // Recurses without shared_from_this(), so a deep freeze takes no
  // reference count per node.
  auto mark = [](auto& self, Node& node) -> void {
    if (node.frozen_) return;
    node.frozen_ = true;
    for (const NodePtr& child : node.children_) self(self, *child);
  };
  mark(mark, *this);
  return shared_from_this();
}

size_t Node::EstimatedBytes() const {
  size_t total = sizeof(Node) + name_.capacity();
  if (value_.is_string()) total += value_.AsString().capacity();
  total += attributes_.capacity() * sizeof(attributes_[0]);
  for (const auto& [attr_name, attr_value] : attributes_) {
    total += attr_name.capacity();
    if (attr_value.is_string()) total += attr_value.AsString().capacity();
  }
  total += children_.capacity() * sizeof(NodePtr);
  for (const NodePtr& child : children_) total += child->EstimatedBytes();
  return total;
}

void Node::CollectDescendants(std::vector<NodePtr>* out) const {
  for (const NodePtr& child : children_) {
    if (child->is_element()) out->push_back(child);
    child->CollectDescendants(out);
  }
}

}  // namespace nimble
