#include "algebra/operators.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace nimble {
namespace algebra {

// ---- Operator ----------------------------------------------------------------

Status Operator::Open() {
  batches_produced_ = 0;
  rows_produced_ = 0;
  return DoOpen();
}

Result<std::optional<TupleBatch>> Operator::NextBatch() {
  while (true) {
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch, DoNextBatch());
    if (!batch.has_value()) return batch;
    if (batch->empty()) continue;  // fully filtered batch: pull again
#ifndef NDEBUG
    // Runtime shape invariants (mirrors verifier I11/I12): slot count
    // matches the schema, the batch respects the configured capacity, and
    // every selection entry addresses a physical row.
    assert(batch->num_slots() == schema().size() &&
           "batch arity disagrees with operator schema");
    assert(batch->size() <= batch_size() && "batch exceeds batch_size");
    if (batch->has_selection()) {
      for (uint32_t phys : batch->selection()) {
        assert(phys < batch->num_rows() && "selection index out of bounds");
      }
    }
#endif
    ++batches_produced_;
    rows_produced_ += batch->size();
    return batch;
  }
}

void Operator::Close() {
  // Counters survive Close so EXPLAIN can report them post-execution.
  DoClose();
}

std::string Operator::DescribeImpl(int indent, bool with_stats) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += " " + schema().ToString();
  if (with_stats) {
    out += " {";
    if (estimated_rows_ >= 0.0) {
      out += "est_rows=" +
             std::to_string(static_cast<long long>(std::llround(estimated_rows_))) +
             ", ";
    }
    out += "batches=" + std::to_string(batches_produced_) +
           ", rows=" + std::to_string(rows_produced_) + "}";
  }
  out += "\n";
  for (const Operator* child : children_views_) {
    out += child->DescribeImpl(indent + 1, with_stats);
  }
  return out;
}

std::string Operator::Describe(int indent) const {
  return DescribeImpl(indent, /*with_stats=*/false);
}

std::string Operator::DescribeWithStats(int indent) const {
  return DescribeImpl(indent, /*with_stats=*/true);
}

Result<TupleBatch> Operator::Drain() {
  NIMBLE_RETURN_IF_ERROR(Open());
  TupleBatch out(schema().size());
  while (true) {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch, NextBatch());
    if (!batch.has_value()) break;
    out.Append(*batch);
  }
  Close();
  return out;
}

void Operator::SetBatchSize(size_t rows) {
  batch_size_ = rows == 0 ? 1 : rows;
  for (Operator* child : children_) child->SetBatchSize(rows);
}

void Operator::SetCancelProbe(CancelProbe probe) {
  // Every operator in the tree shares the same probe so a cancelled query
  // stops draining wherever it happens to be — pipeline stages included.
  for (Operator* child : children_) child->SetCancelProbe(probe);
  cancel_probe_ = std::move(probe);
}

// ---- MaterializedScan ---------------------------------------------------------

MaterializedScan::MaterializedScan(TupleSchema schema, TupleBatch data,
                                   std::string source_label)
    : schema_(std::move(schema)),
      data_(std::move(data)),
      source_label_(std::move(source_label)) {
  assert(data_.num_slots() == schema_.size() &&
         "columnar scan data arity disagrees with schema");
}

Result<std::optional<TupleBatch>> MaterializedScan::DoNextBatch() {
  NIMBLE_RETURN_IF_ERROR(PollCancel());
  const size_t total = data_.size();
  if (position_ >= total) return std::optional<TupleBatch>{};
  const size_t n = std::min(batch_size(), total - position_);
  TupleBatch out = data_.Slice(position_, n);
  position_ += n;
  return std::optional<TupleBatch>(std::move(out));
}

std::string MaterializedScan::label() const {
  return "Scan(" + source_label_ + ", " + std::to_string(data_.size()) +
         " tuples)";
}

// ---- Filter --------------------------------------------------------------------

Filter::Filter(std::unique_ptr<Operator> child,
               std::vector<BoundExpr> predicates)
    : child_(std::move(child)), predicates_(std::move(predicates)) {
  AddChild(child_.get());
}

Result<std::optional<TupleBatch>> Filter::DoNextBatch() {
  while (true) {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch,
                            child_->NextBatch());
    if (!batch.has_value()) return batch;
    NIMBLE_RETURN_IF_ERROR(ApplyPredicates(predicates_, &*batch));
    if (batch->empty()) continue;  // try the next child batch
    return batch;
  }
}

std::string Filter::label() const {
  return "Filter(" + std::to_string(predicates_.size()) + " conds)";
}

// ---- Joins ----------------------------------------------------------------------

namespace {

/// Output slot → (side, source column) of a join whose output schema
/// `merged` is left.Merge(right); side 0 is the left input, 1 the right.
/// Left columns come first, then right columns override shared slots: the
/// right binding wins on join keys, as the historical row-combine did.
std::vector<std::pair<int, size_t>> SlotSources(const TupleSchema& left,
                                                const TupleSchema& right,
                                                const TupleSchema& merged) {
  std::vector<std::pair<int, size_t>> sources(merged.size(), {0, 0});
  for (size_t i = 0; i < left.size(); ++i) sources[i] = {0, i};
  for (size_t j = 0; j < right.size(); ++j) {
    sources[*merged.SlotOf(right.variables()[j])] = {1, j};
  }
  return sources;
}

}  // namespace

// ---- HashJoin -------------------------------------------------------------------

HashJoin::HashJoin(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right, bool build_left)
    : HashJoin(std::move(left), std::move(right),
               std::vector<std::pair<size_t, size_t>>{}) {
  build_left_ = build_left;
  for (const std::string& var : left_->schema().variables()) {
    std::optional<size_t> right_slot = right_->schema().SlotOf(var);
    if (right_slot.has_value()) {
      join_variables_.push_back(var);
      left_key_slots_.push_back(*left_->schema().SlotOf(var));
      right_key_slots_.push_back(*right_slot);
    }
  }
}

HashJoin::HashJoin(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right,
                   const std::vector<std::pair<size_t, size_t>>& key_slots)
    : left_(std::move(left)), right_(std::move(right)) {
  for (const auto& [left_slot, right_slot] : key_slots) {
    left_key_slots_.push_back(left_slot);
    right_key_slots_.push_back(right_slot);
  }
  AddChild(left_.get());
  AddChild(right_.get());
  schema_ = left_->schema().Merge(right_->schema());
  slot_source_ = SlotSources(left_->schema(), right_->schema(), schema_);
}

Status HashJoin::DoOpen() {
  NIMBLE_RETURN_IF_ERROR(probe_input()->Open());
  // Compact the chosen build side into one column store.
  NIMBLE_ASSIGN_OR_RETURN(build_, build_input()->Drain());
  // Chained hash table (head/next index arrays) over the build columns,
  // sized to a load factor of at most 0.5.
  const size_t n = build_.num_rows();
  size_t buckets = 1;
  while (buckets < n * 2) buckets <<= 1;
  bucket_mask_ = buckets - 1;
  heads_.assign(buckets, kNone);
  next_.assign(n, kNone);
  // Insert back to front so each chain iterates in build-input order,
  // matching the historical per-bucket vector order.
  for (size_t r = n; r-- > 0;) {
    const size_t h = HashBatchSlots(build_, r, build_key_slots()) & bucket_mask_;
    next_[r] = heads_[h];
    heads_[h] = static_cast<uint32_t>(r);
  }
  probe_.reset();
  probe_row_ = 0;
  chain_ = kNone;
  return Status::OK();
}

void HashJoin::StartChain(size_t i) {
  if (build_.num_rows() == 0) {
    chain_ = kNone;
    return;
  }
  chain_ = heads_[HashBatchSlots(*probe_, i, probe_key_slots()) & bucket_mask_];
}

void HashJoin::AppendJoined(const TupleBatch& probe, size_t i,
                            uint32_t build_row, TupleBatch* out) const {
  const size_t phys = probe.PhysicalRow(i);
  // slot_source_ sides are (0 = left, 1 = right); resolve against whichever
  // physically holds that side: the compacted build store or the probe batch.
  const int probe_side = build_left_ ? 1 : 0;
  for (size_t slot = 0; slot < slot_source_.size(); ++slot) {
    const auto& [side, col] = slot_source_[slot];
    const Binding& binding = side == probe_side ? probe.column(col)[phys]
                                                : build_.column(col)[build_row];
    out->MutableColumn(slot).push_back(binding);
  }
  out->SetNumRows(out->num_rows() + 1);
}

Result<std::optional<TupleBatch>> HashJoin::DoNextBatch() {
  TupleBatch out(schema_.size());
  out.Reserve(batch_size());
  while (true) {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    if (probe_.has_value()) {
      while (probe_row_ < probe_->size()) {
        while (chain_ != kNone) {
          const uint32_t candidate = chain_;
          chain_ = next_[candidate];
          if (BatchSlotsEqual(*probe_, probe_row_, probe_key_slots(), build_,
                              candidate, build_key_slots())) {
            AppendJoined(*probe_, probe_row_, candidate, &out);
            if (out.num_rows() >= batch_size()) {
              return std::optional<TupleBatch>(std::move(out));
            }
          }
        }
        ++probe_row_;
        if (probe_row_ < probe_->size()) StartChain(probe_row_);
      }
      probe_.reset();
    }
    NIMBLE_ASSIGN_OR_RETURN(probe_, probe_input()->NextBatch());
    if (!probe_.has_value()) break;
    probe_row_ = 0;
    StartChain(0);
  }
  if (out.num_rows() == 0) return std::optional<TupleBatch>{};
  return std::optional<TupleBatch>(std::move(out));
}

void HashJoin::DoClose() {
  probe_input()->Close();
  build_ = TupleBatch();
  heads_.clear();
  next_.clear();
  probe_.reset();
}

std::string HashJoin::label() const {
  // "$v" per shared variable, "$l=$r" per explicit pair; "?" marks a slot
  // outside its child's schema (a plan the verifier rejects).
  auto name = [](const Operator& child, size_t slot) {
    const std::vector<std::string>& vars = child.schema().variables();
    return slot < vars.size() ? vars[slot] : std::string("?");
  };
  std::string vars;
  for (size_t i = 0; i < left_key_slots_.size(); ++i) {
    const std::string l = name(*left_, left_key_slots_[i]);
    const std::string r = name(*right_, right_key_slots_[i]);
    vars += (i > 0 ? ",$" : "$") + l + (l == r ? "" : "=$" + r);
  }
  if (build_left_) return "HashJoin(" + vars + ", build=left)";
  return "HashJoin(" + vars + ")";
}

// ---- NestedLoopJoin -----------------------------------------------------------

NestedLoopJoin::NestedLoopJoin(std::unique_ptr<Operator> left,
                               std::unique_ptr<Operator> right)
    : left_(std::move(left)), right_(std::move(right)) {
  AddChild(left_.get());
  AddChild(right_.get());
  schema_ = left_->schema().Merge(right_->schema());
  slot_source_ = SlotSources(left_->schema(), right_->schema(), schema_);
}

Status NestedLoopJoin::DoOpen() {
  NIMBLE_RETURN_IF_ERROR(left_->Open());
  NIMBLE_ASSIGN_OR_RETURN(right_data_, right_->Drain());
  probe_.reset();
  probe_row_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

Result<std::optional<TupleBatch>> NestedLoopJoin::DoNextBatch() {
  TupleBatch out(schema_.size());
  while (true) {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    if (probe_.has_value()) {
      while (probe_row_ < probe_->size()) {
        while (right_pos_ < right_data_.num_rows()) {
          const size_t r = right_pos_++;
          const size_t phys = probe_->PhysicalRow(probe_row_);
          for (size_t slot = 0; slot < schema_.size(); ++slot) {
            const auto& [side, col] = slot_source_[slot];
            out.MutableColumn(slot).push_back(
                side == 0 ? probe_->column(col)[phys]
                          : right_data_.column(col)[r]);
          }
          out.SetNumRows(out.num_rows() + 1);
          if (out.num_rows() >= batch_size()) {
            return std::optional<TupleBatch>(std::move(out));
          }
        }
        right_pos_ = 0;
        ++probe_row_;
      }
      probe_.reset();
    }
    NIMBLE_ASSIGN_OR_RETURN(probe_, left_->NextBatch());
    if (!probe_.has_value()) break;
    probe_row_ = 0;
    right_pos_ = 0;
  }
  if (out.num_rows() == 0) return std::optional<TupleBatch>{};
  return std::optional<TupleBatch>(std::move(out));
}

void NestedLoopJoin::DoClose() {
  left_->Close();
  right_data_ = TupleBatch();
  probe_.reset();
}

// ---- Sort -----------------------------------------------------------------------

Sort::Sort(std::unique_ptr<Operator> child, std::vector<Key> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  AddChild(child_.get());
}

Status Sort::DoOpen() {
  NIMBLE_ASSIGN_OR_RETURN(data_, child_->Drain());
  // Sort a permutation of physical rows; emitted batches are selection
  // views in sorted order over the (unmoved) columns.
  order_.resize(data_.num_rows());
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [this](uint32_t a, uint32_t b) {
                     for (const Key& key : keys_) {
                       const std::vector<Binding>& column = data_.column(key.slot);
                       int cmp = column[a].AsScalar().Compare(
                           column[b].AsScalar());
                       if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  position_ = 0;
  return Status::OK();
}

Result<std::optional<TupleBatch>> Sort::DoNextBatch() {
  NIMBLE_RETURN_IF_ERROR(PollCancel());
  if (position_ >= order_.size()) return std::optional<TupleBatch>{};
  const size_t n = std::min(batch_size(), order_.size() - position_);
  std::vector<uint32_t> selection(order_.begin() + static_cast<long>(position_),
                                  order_.begin() +
                                      static_cast<long>(position_ + n));
  position_ += n;
  return std::optional<TupleBatch>(data_.Select(std::move(selection)));
}

void Sort::DoClose() {
  data_ = TupleBatch();
  order_.clear();
}

// ---- Limit ----------------------------------------------------------------------

Limit::Limit(std::unique_ptr<Operator> child, size_t limit)
    : child_(std::move(child)), limit_(limit) {
  AddChild(child_.get());
}

Result<std::optional<TupleBatch>> Limit::DoNextBatch() {
  NIMBLE_RETURN_IF_ERROR(PollCancel());
  if (emitted_ >= limit_) return std::optional<TupleBatch>{};
  NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch,
                          child_->NextBatch());
  if (!batch.has_value()) return batch;
  const size_t remaining = limit_ - emitted_;
  if (batch->size() > remaining) *batch = batch->Slice(0, remaining);
  emitted_ += batch->size();
  return batch;
}

std::string Limit::label() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

// ---- HashAggregate -------------------------------------------------------------

HashAggregate::HashAggregate(std::unique_ptr<Operator> child,
                             std::vector<std::string> group_variables,
                             std::vector<Spec> specs)
    : child_(std::move(child)),
      group_variables_(std::move(group_variables)),
      specs_(std::move(specs)) {
  AddChild(child_.get());
  for (const std::string& var : group_variables_) schema_.AddVariable(var);
  for (const Spec& spec : specs_) schema_.AddVariable(spec.output_variable);
}

Status HashAggregate::DoOpen() {
  std::vector<size_t> group_slots;
  for (const std::string& var : group_variables_) {
    std::optional<size_t> slot = child_->schema().SlotOf(var);
    if (!slot.has_value()) {
      return Status::InvalidArgument("group variable $" + var + " not bound");
    }
    group_slots.push_back(*slot);
  }
  std::vector<int> input_slots;
  for (const Spec& spec : specs_) {
    if (spec.fn == Fn::kCount && spec.input_variable.empty()) {
      input_slots.push_back(-1);
      continue;
    }
    std::optional<size_t> slot = child_->schema().SlotOf(spec.input_variable);
    if (!slot.has_value()) {
      return Status::InvalidArgument("aggregate input $" +
                                     spec.input_variable + " not bound");
    }
    input_slots.push_back(static_cast<int>(*slot));
  }

  // Single streaming pass: per-group accumulators updated batch by batch.
  // Input rows are never buffered. A group is keyed on its values — the
  // type plus Value::Compare, so 3 and 3.0 stay apart — and groups keep
  // first-appearance order. Key bindings are kept column by column and
  // become the output's group columns.
  struct Accum {
    int64_t count = 0;
    double sum = 0;
    int64_t int_sum = 0;    ///< exact sum while every input is an int.
    bool int_exact = true;  ///< no double input and no int64 overflow yet.
    bool any = false;
    Value min_v, max_v;
  };
  std::vector<std::vector<Binding>> key_columns(group_slots.size());
  std::vector<Accum> accums;  ///< specs_.size() per group, group-major.
  std::unordered_multimap<size_t, size_t> index;  ///< key hash → group.
  size_t num_groups = 0;
  static const Value kOne = Value::Int(1);

  NIMBLE_RETURN_IF_ERROR(child_->Open());
  while (true) {
    NIMBLE_RETURN_IF_ERROR(PollCancel());
    NIMBLE_ASSIGN_OR_RETURN(std::optional<TupleBatch> batch,
                            child_->NextBatch());
    if (!batch.has_value()) break;
    for (size_t i = 0; i < batch->size(); ++i) {
      const size_t hash = HashBatchSlots(*batch, i, group_slots);
      size_t group = num_groups;
      auto [first, last] = index.equal_range(hash);
      for (auto it = first; it != last && group == num_groups; ++it) {
        bool same = true;
        for (size_t k = 0; same && k < group_slots.size(); ++k) {
          same = ValueKeyEqual()(key_columns[k][it->second].AsScalar(),
                                 batch->binding(group_slots[k], i).AsScalar());
        }
        if (same) group = it->second;
      }
      if (group == num_groups) {
        index.emplace(hash, group);
        for (size_t k = 0; k < group_slots.size(); ++k) {
          key_columns[k].push_back(batch->binding(group_slots[k], i));
        }
        accums.resize(accums.size() + specs_.size());
        ++num_groups;
      }
      for (size_t s = 0; s < specs_.size(); ++s) {
        const int in_slot = input_slots[s];
        const Value& v =
            in_slot < 0
                ? kOne
                : batch->binding(static_cast<size_t>(in_slot), i).AsScalar();
        if (in_slot >= 0 && v.is_null()) continue;
        Accum& a = accums[group * specs_.size() + s];
        ++a.count;
        if (v.is_numeric()) {
          a.sum += v.NumericValue();
          a.int_exact = a.int_exact && v.is_int() &&
                        !__builtin_add_overflow(a.int_sum, v.AsInt(), &a.int_sum);
        }
        if (!a.any) {
          a.min_v = v;
          a.max_v = v;
          a.any = true;
        } else {
          if (v.Compare(a.min_v) < 0) a.min_v = v;
          if (v.Compare(a.max_v) > 0) a.max_v = v;
        }
      }
    }
  }
  child_->Close();

  // Output columns, written directly: the group keys, then one column per
  // aggregate.
  results_ = TupleBatch(schema_.size());
  for (size_t k = 0; k < group_slots.size(); ++k) {
    results_.MutableColumn(*schema_.SlotOf(group_variables_[k])) =
        std::move(key_columns[k]);
  }
  for (size_t s = 0; s < specs_.size(); ++s) {
    std::vector<Binding> column;
    column.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const Accum& a = accums[g * specs_.size() + s];
      switch (specs_[s].fn) {
        case Fn::kCount:
          column.emplace_back(Value::Int(a.count));
          break;
        case Fn::kSum:
          column.emplace_back(!a.any        ? Value::Null()
                              : a.int_exact ? Value::Int(a.int_sum)
                                            : Value::Double(a.sum));
          break;
        case Fn::kMin:
          column.emplace_back(a.any ? a.min_v : Value::Null());
          break;
        case Fn::kMax:
          column.emplace_back(a.any ? a.max_v : Value::Null());
          break;
        case Fn::kAvg:
          column.emplace_back(
              a.any ? Value::Double(a.sum / static_cast<double>(a.count))
                    : Value::Null());
          break;
      }
    }
    results_.MutableColumn(*schema_.SlotOf(specs_[s].output_variable)) =
        std::move(column);
  }
  results_.SetNumRows(num_groups);
  position_ = 0;
  return Status::OK();
}

Result<std::optional<TupleBatch>> HashAggregate::DoNextBatch() {
  NIMBLE_RETURN_IF_ERROR(PollCancel());
  if (position_ >= results_.num_rows()) return std::optional<TupleBatch>{};
  const size_t n = std::min(batch_size(), results_.num_rows() - position_);
  TupleBatch out = results_.Slice(position_, n);
  position_ += n;
  return std::optional<TupleBatch>(std::move(out));
}

void HashAggregate::DoClose() { results_ = TupleBatch(); }

}  // namespace algebra
}  // namespace nimble
