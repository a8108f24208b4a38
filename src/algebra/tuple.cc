#include "algebra/tuple.h"

namespace nimble {
namespace algebra {

bool Binding::EqualsForJoin(const Binding& other) const {
  if (is_unset() || other.is_unset()) return false;
  if (is_node() && other.is_node()) {
    // Two node bindings unify when structurally equal.
    return node_->DeepEquals(*other.node_);
  }
  const Value& a = AsScalar();
  const Value& b = other.AsScalar();
  // SQL-style semantics: null never equi-joins, not even with null.
  if (a.is_null() || b.is_null()) return false;
  return a == b;
}

std::optional<size_t> TupleSchema::SlotOf(const std::string& variable) const {
  for (size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i] == variable) return i;
  }
  return std::nullopt;
}

size_t TupleSchema::AddVariable(const std::string& variable) {
  std::optional<size_t> slot = SlotOf(variable);
  if (slot.has_value()) return *slot;
  variables_.push_back(variable);
  return variables_.size() - 1;
}

TupleSchema TupleSchema::Merge(const TupleSchema& other) const {
  TupleSchema merged = *this;
  for (const std::string& var : other.variables_) {
    merged.AddVariable(var);
  }
  return merged;
}

std::string TupleSchema::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < variables_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + variables_[i];
  }
  return out + "]";
}

// ---- TupleBatch -------------------------------------------------------------

TupleBatch TupleBatch::Select(std::vector<uint32_t> selection) const {
  TupleBatch view = *this;  // shares columns_
  view.selection_ = std::move(selection);
  view.has_selection_ = true;
  return view;
}

TupleBatch TupleBatch::Slice(size_t begin, size_t count) const {
  std::vector<uint32_t> selection;
  selection.reserve(count);
  for (size_t i = begin; i < begin + count; ++i) {
    selection.push_back(static_cast<uint32_t>(PhysicalRow(i)));
  }
  return Select(std::move(selection));
}

void TupleBatch::Reserve(size_t rows) {
  assert(columns_.use_count() == 1 && "mutating shared batch storage");
  for (std::vector<Binding>& column : *columns_) column.reserve(rows);
}

void TupleBatch::Append(const TupleBatch& src) {
  assert(columns_.use_count() == 1 && "mutating shared batch storage");
  assert(src.num_slots() == num_slots() && &src != this);
  for (size_t slot = 0; slot < num_slots(); ++slot) {
    const std::vector<Binding>& from = src.column(slot);
    std::vector<Binding>& to = (*columns_)[slot];
    // Range insert grows geometrically, like push_back.
    if (!src.has_selection_) {
      to.insert(to.end(), from.begin(), from.end());
    } else {
      for (uint32_t phys : src.selection_) to.push_back(from[phys]);
    }
  }
  num_rows_ += src.size();
}

size_t HashBatchSlots(const TupleBatch& batch, size_t i,
                      const std::vector<size_t>& slots) {
  const size_t phys = batch.PhysicalRow(i);
  size_t h = 0xcbf29ce484222325ULL;
  for (size_t slot : slots) {
    h ^= batch.column(slot)[phys].Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool BatchSlotsEqual(const TupleBatch& a, size_t ai,
                     const std::vector<size_t>& slots_a, const TupleBatch& b,
                     size_t bi, const std::vector<size_t>& slots_b) {
  if (slots_a.size() != slots_b.size()) return false;
  const size_t pa = a.PhysicalRow(ai);
  const size_t pb = b.PhysicalRow(bi);
  for (size_t i = 0; i < slots_a.size(); ++i) {
    if (!a.column(slots_a[i])[pa].EqualsForJoin(b.column(slots_b[i])[pb])) {
      return false;
    }
  }
  return true;
}

}  // namespace algebra
}  // namespace nimble
