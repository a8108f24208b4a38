#ifndef NIMBLE_ALGEBRA_TUPLE_H_
#define NIMBLE_ALGEBRA_TUPLE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xml/node.h"
#include "xml/value.h"

namespace nimble {
namespace algebra {

/// One variable binding: unset, a typed scalar, or an XML node (bound via
/// ELEMENT_AS). The physical algebra flows tuples of bindings between
/// operators — this is the "slightly more structured" representation the
/// paper's algebra operates on (§3.1): relational rows and tree fragments
/// share one runtime value type.
///
/// The scalar view (node → ScalarValue(), unset → null) is computed once at
/// construction and cached, so the join/aggregate hot path never allocates a
/// fresh Value per Hash()/AsScalar() call.
class Binding {
 public:
  Binding() : kind_(Kind::kUnset) {}
  explicit Binding(Value scalar)
      : kind_(Kind::kScalar), scalar_(std::move(scalar)) {}
  explicit Binding(NodePtr node) : kind_(Kind::kNode), node_(std::move(node)) {
    if (node_ != nullptr) scalar_ = node_->ScalarValue();
  }

  bool is_unset() const { return kind_ == Kind::kUnset; }
  bool is_scalar() const { return kind_ == Kind::kScalar; }
  bool is_node() const { return kind_ == Kind::kNode; }

  const Value& scalar() const { return scalar_; }
  const NodePtr& node() const { return node_; }

  /// Scalar view: scalars pass through; nodes yield their ScalarValue();
  /// unset yields null. Used by predicates, sorts and joins. Returns a
  /// reference to the cached view — no per-call Value copy.
  const Value& AsScalar() const { return scalar_; }

  /// Equality for unification and join keys: scalar-to-scalar compares
  /// values (node bindings compare by ScalarValue too, so a node can join
  /// with a scalar).
  bool EqualsForJoin(const Binding& other) const;

  size_t Hash() const { return scalar_.Hash(); }

 private:
  enum class Kind { kUnset, kScalar, kNode };
  Kind kind_;
  Value scalar_;  ///< cached scalar view for every kind (null when unset).
  NodePtr node_;
};

/// Maps variable names to batch column slots.
class TupleSchema {
 public:
  TupleSchema() = default;
  explicit TupleSchema(std::vector<std::string> variables)
      : variables_(std::move(variables)) {}

  const std::vector<std::string>& variables() const { return variables_; }
  size_t size() const { return variables_.size(); }

  std::optional<size_t> SlotOf(const std::string& variable) const;

  /// Adds `variable` if absent; returns its slot either way.
  size_t AddVariable(const std::string& variable);

  /// Schema with this schema's variables followed by `other`'s variables
  /// that are not already present (join output shape).
  TupleSchema Merge(const TupleSchema& other) const;

  bool operator==(const TupleSchema& other) const {
    return variables_ == other.variables_;
  }

  std::string ToString() const;

 private:
  std::vector<std::string> variables_;
};

/// A batch of binding rows in column-major layout: one Binding vector per
/// schema slot, plus an optional selection vector naming the live rows.
/// This is the one binding format of the mediator — pattern matching, the
/// operators, shard answers and CONSTRUCT all speak it (DESIGN.md §2g).
/// Operators amortize virtual dispatch over `batch_size` rows, predicates
/// shrink the selection vector instead of copying survivors, and column
/// storage is shared (never copied) between a scan and the pass-through
/// operators above it.
///
/// Storage is a shared, immutable-once-shared column set. Builders append
/// through the mutating API while they hold the only reference; Filter and
/// Slice/Select produce cheap views that re-select rows of the same
/// columns. `num_rows()` is the physical row count of the columns;
/// `size()` is the active row count after selection.
class TupleBatch {
 public:
  TupleBatch() : columns_(std::make_shared<ColumnSet>()) {}
  explicit TupleBatch(size_t num_slots)
      : columns_(std::make_shared<ColumnSet>(num_slots)) {}

  size_t num_slots() const { return columns_->size(); }
  /// Physical rows held by the columns.
  size_t num_rows() const { return num_rows_; }
  /// Active rows (selection applied).
  size_t size() const {
    return has_selection_ ? selection_.size() : num_rows_;
  }
  bool empty() const { return size() == 0; }

  const std::vector<Binding>& column(size_t slot) const {
    return (*columns_)[slot];
  }

  /// Physical row index of active row `i`.
  size_t PhysicalRow(size_t i) const {
    return has_selection_ ? selection_[i] : i;
  }

  /// Binding at (slot, active row i).
  const Binding& binding(size_t slot, size_t i) const {
    return (*columns_)[slot][PhysicalRow(i)];
  }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

  /// Replaces this batch's selection (indices are *physical* rows). Used by
  /// Filter: the columns are untouched and stay shared.
  void SetSelection(std::vector<uint32_t> selection) {
    selection_ = std::move(selection);
    has_selection_ = true;
  }

  /// A view of the same columns restricted to `selection` (physical rows,
  /// in the desired logical order — Sort uses an arbitrary permutation).
  TupleBatch Select(std::vector<uint32_t> selection) const;

  /// A view of active rows [begin, begin + count).
  TupleBatch Slice(size_t begin, size_t count) const;

  // --- Builder API: requires sole ownership of the column storage -------

  /// Reserves capacity for `rows` in every column.
  void Reserve(size_t rows);

  std::vector<Binding>& MutableColumn(size_t slot) {
    assert(columns_.use_count() == 1 && "mutating shared batch storage");
    return (*columns_)[slot];
  }

  /// Appends the active rows of `src` (same arity), in order. Growth is
  /// amortized: no exact per-call reserve, so appending many small batches
  /// stays linear (DESIGN.md §2g).
  void Append(const TupleBatch& src);

  /// Declares the physical row count after filling columns directly via
  /// MutableColumn (all columns must have exactly `rows` entries).
  void SetNumRows(size_t rows) { num_rows_ = rows; }

 private:
  using ColumnSet = std::vector<std::vector<Binding>>;

  std::shared_ptr<ColumnSet> columns_;
  size_t num_rows_ = 0;
  bool has_selection_ = false;
  std::vector<uint32_t> selection_;
};

/// Join-key helpers: hash / compare the key slots of active row `i` of a
/// batch.
size_t HashBatchSlots(const TupleBatch& batch, size_t i,
                      const std::vector<size_t>& slots);
bool BatchSlotsEqual(const TupleBatch& a, size_t ai,
                     const std::vector<size_t>& slots_a, const TupleBatch& b,
                     size_t bi, const std::vector<size_t>& slots_b);

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_TUPLE_H_
