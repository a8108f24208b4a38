#ifndef NIMBLE_ALGEBRA_OPERATORS_H_
#define NIMBLE_ALGEBRA_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/tuple.h"
#include "common/result.h"

namespace nimble {
namespace algebra {

/// Deadline/cancellation probe threaded into a plan before it drains
/// (DESIGN.md §2b): returns OK while the query may keep running, Cancelled
/// or Timeout otherwise. The engine installs one backed by its per-query
/// ExecutionContext; the algebra layer stays ignorant of core:: types so
/// the dependency arrow keeps pointing core → algebra.
using CancelProbe = std::function<Status()>;

/// Batch-at-a-time Volcano iterator. Open() may do bulk work (builds,
/// sorts); NextBatch() yields column-major TupleBatches of up to
/// batch_size() active rows until nullopt. Operators own their children.
///
/// The paper deliberately ships only a *physical* algebra (§3.1): query
/// plans are built directly in terms of these operators, with no logical
/// algebra in between. The iteration model is vectorized (DESIGN.md §2g):
/// predicates shrink a selection vector over shared column storage, and
/// joins build and probe in batch.
class Operator {
 public:
  /// Default rows per batch; EngineOptions::batch_size overrides per plan.
  static constexpr size_t kDefaultBatchSize = 1024;

  virtual ~Operator() = default;

  virtual const TupleSchema& schema() const = 0;
  virtual std::string label() const = 0;

  /// Resets iteration state (including the batch counters) and performs
  /// the operator's bulk work.
  Status Open();

  /// Yields the next non-empty batch, or nullopt at end of stream. The
  /// returned batch never has more than batch_size() active rows.
  Result<std::optional<TupleBatch>> NextBatch();

  void Close();

  /// Indented plan tree rendering (for EXPLAIN-style output).
  std::string Describe(int indent = 0) const;

  /// Like Describe(), with per-operator execution counters appended
  /// ("{batches=N, rows=M}"). Meaningful after the plan has been drained;
  /// counters reset on Open().
  std::string DescribeWithStats(int indent = 0) const;

  /// Drains the operator: Open, collect every batch into one compacted
  /// batch (no selection), Close. Polls cancellation between batches.
  Result<TupleBatch> Drain();

  /// Rows per emitted batch; applied to this operator and all children.
  /// Clamped to at least 1.
  void SetBatchSize(size_t rows);
  size_t batch_size() const { return batch_size_; }

  /// Installs the deadline/cancellation probe on this operator and all
  /// children. Every operator polls it between batches (and inside its
  /// unbounded drain loops — lint rule NL006 enforces this), so a
  /// cancelled or expired query stops mid-drain instead of running the
  /// plan to completion. A null probe (the default) never cancels.
  void SetCancelProbe(CancelProbe probe);

  /// Batches / rows this operator has emitted since Open().
  size_t batches_produced() const { return batches_produced_; }
  size_t rows_produced() const { return rows_produced_; }

  /// Optimizer cardinality annotation (DESIGN.md §2h): the estimated output
  /// rows the cost-based planner chose this operator under. Unset (< 0) on
  /// plans built by the legacy heuristic. Rendered by DescribeWithStats as
  /// `est_rows=` next to the actual `rows=` so misestimates are visible in
  /// EXPLAIN, and checked for internal consistency by verifier invariant
  /// I13. Survives Open()/Close() — it describes the plan, not a run.
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }
  double estimated_rows() const { return estimated_rows_; }
  bool has_estimated_rows() const { return estimated_rows_ >= 0.0; }

  /// Read-only child views, in input order (left before right). Used by
  /// Describe and the plan verifier.
  const std::vector<const Operator*>& children() const {
    return children_views_;
  }

 protected:
  virtual Status DoOpen() = 0;
  /// May return empty batches; the NextBatch() wrapper skips them.
  virtual Result<std::optional<TupleBatch>> DoNextBatch() = 0;
  virtual void DoClose() = 0;

  /// Deadline/cancellation poll for DoOpen/DoNextBatch drain loops: OK
  /// while the query may keep running, Cancelled/Timeout otherwise.
  /// Cheap when no probe is installed (one branch).
  Status PollCancel() const {
    return cancel_probe_ ? cancel_probe_() : Status::OK();
  }

  /// Registers `child` for Describe/verify and batch-size propagation.
  void AddChild(Operator* child) {
    children_views_.push_back(child);
    children_.push_back(child);
  }

  std::vector<const Operator*> children_views_;  ///< for Describe/verify.

 private:
  std::string DescribeImpl(int indent, bool with_stats) const;

  std::vector<Operator*> children_;  ///< for SetBatchSize propagation.
  size_t batch_size_ = kDefaultBatchSize;
  CancelProbe cancel_probe_;  ///< null = never cancels.
  size_t batches_produced_ = 0;
  size_t rows_produced_ = 0;
  double estimated_rows_ = -1.0;  ///< < 0 = no cost annotation.
};

/// Leaf yielding a pre-materialized columnar table (the output of pattern
/// matching a fetched collection, or of a pushed-down SQL fragment).
/// Emitted batches are zero-copy views (shared columns + a selection
/// window).
class MaterializedScan : public Operator {
 public:
  /// `data` must have one column per schema slot.
  MaterializedScan(TupleSchema schema, TupleBatch data,
                   std::string source_label = "materialized");

  const TupleSchema& schema() const override { return schema_; }
  std::string label() const override;

  /// The backing column store (full table, no selection).
  const TupleBatch& data() const { return data_; }
  size_t tuple_count() const { return data_.num_rows(); }

 protected:
  Status DoOpen() override {
    position_ = 0;
    return Status::OK();
  }
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override {}

 private:
  TupleSchema schema_;
  TupleBatch data_;
  size_t position_ = 0;
  std::string source_label_;
};

/// σ: drops rows on which any predicate fails — the only operator that
/// drops rows by predicate, for XML-QL conditions and SQL WHERE, ON and
/// HAVING alike. Vectorized: applies the predicates to each child batch
/// (ApplyPredicates) and emits the same batch with a shrunk selection
/// vector — survivors are never copied.
class Filter : public Operator {
 public:
  Filter(std::unique_ptr<Operator> child, std::vector<BoundExpr> predicates);

  const TupleSchema& schema() const override { return child_->schema(); }
  std::string label() const override;

  const std::vector<BoundExpr>& predicates() const { return predicates_; }

 protected:
  Status DoOpen() override { return child_->Open(); }
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<BoundExpr> predicates_;
};

/// ⋈: hash join on the variables shared between the two inputs (natural
/// join over variable names — XML-QL joins are expressed by repeating a
/// variable across patterns). The build side is compacted into one column
/// store with a chained hash table (head/next index arrays); probing
/// consumes the other side's batches and emits combined rows in batch.
/// Historically the build side was always the right input; the cost-based
/// optimizer passes `build_left` when the left is estimated smaller
/// (DESIGN.md §2h). Output schema and combine semantics ("right binding
/// wins" on shared slots) are independent of the build side — only the
/// emission order (probe-major) and the memory footprint change.
class HashJoin : public Operator {
 public:
  HashJoin(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
           bool build_left = false);

  /// Equi-join on explicit (left slot, right slot) key pairs, building on
  /// the right. For inputs whose key columns carry different names — the
  /// SQL planner's `alias.column` slots; the children share no variable.
  HashJoin(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
           const std::vector<std::pair<size_t, size_t>>& key_slots);

  const TupleSchema& schema() const override { return schema_; }
  std::string label() const override;

  const std::vector<std::string>& join_variables() const {
    return join_variables_;
  }
  const std::vector<size_t>& left_key_slots() const { return left_key_slots_; }
  const std::vector<size_t>& right_key_slots() const {
    return right_key_slots_;
  }
  bool build_left() const { return build_left_; }

 protected:
  Status DoOpen() override;
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override;

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  Operator* build_input() const { return build_left_ ? left_.get() : right_.get(); }
  Operator* probe_input() const { return build_left_ ? right_.get() : left_.get(); }
  const std::vector<size_t>& build_key_slots() const {
    return build_left_ ? left_key_slots_ : right_key_slots_;
  }
  const std::vector<size_t>& probe_key_slots() const {
    return build_left_ ? right_key_slots_ : left_key_slots_;
  }

  /// Appends probe row `i` combined with build row `build_row` to `out`.
  void AppendJoined(const TupleBatch& probe, size_t i, uint32_t build_row,
                    TupleBatch* out) const;
  /// Positions chain_ at the bucket head for probe row `i`.
  void StartChain(size_t i);

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  bool build_left_ = false;
  TupleSchema schema_;
  std::vector<std::string> join_variables_;
  std::vector<size_t> left_key_slots_;
  std::vector<size_t> right_key_slots_;
  /// output-slot → (side, source column): side 0 = left, 1 = right. Shared
  /// variables resolve to the right side, preserving the historical
  /// "right binding wins" combine semantics.
  std::vector<std::pair<int, size_t>> slot_source_;

  TupleBatch build_;                ///< compacted build side.
  std::vector<uint32_t> heads_;     ///< bucket heads (kNone = empty).
  std::vector<uint32_t> next_;      ///< chain links per build row.
  size_t bucket_mask_ = 0;
  std::optional<TupleBatch> probe_;  ///< current left batch.
  size_t probe_row_ = 0;             ///< active-row cursor into probe_.
  uint32_t chain_ = kNone;           ///< next build candidate for probe_row_.
};

/// Nested-loop (cartesian) join for inputs with no equi-join key. The
/// right side is materialized (columnar) on Open; every pair is emitted,
/// and a non-equi condition is a Filter above the join.
class NestedLoopJoin : public Operator {
 public:
  NestedLoopJoin(std::unique_ptr<Operator> left,
                 std::unique_ptr<Operator> right);

  const TupleSchema& schema() const override { return schema_; }
  std::string label() const override { return "NestedLoopJoin"; }

 protected:
  Status DoOpen() override;
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  TupleSchema schema_;
  /// output-slot → (side, source column), as in HashJoin.
  std::vector<std::pair<int, size_t>> slot_source_;

  TupleBatch right_data_;            ///< compacted right side.
  std::optional<TupleBatch> probe_;  ///< current left batch.
  size_t probe_row_ = 0;
  size_t right_pos_ = 0;
};

/// Sort by variables (stable; document order preserved among equals —
/// XML ordering, §4). Materializes the child into one column store, sorts
/// a permutation vector, and emits zero-copy selection views in sorted
/// order.
class Sort : public Operator {
 public:
  struct Key {
    size_t slot;
    bool descending;
  };

  Sort(std::unique_ptr<Operator> child, std::vector<Key> keys);

  const TupleSchema& schema() const override { return child_->schema(); }
  std::string label() const override { return "Sort"; }

  const std::vector<Key>& keys() const { return keys_; }

 protected:
  Status DoOpen() override;
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Key> keys_;
  TupleBatch data_;                   ///< compacted child output.
  std::vector<uint32_t> order_;       ///< physical rows in sorted order.
  size_t position_ = 0;
};

/// Emits at most `limit` tuples; pass-through batches are trimmed by
/// slicing the selection window, never copied.
class Limit : public Operator {
 public:
  Limit(std::unique_ptr<Operator> child, size_t limit);

  const TupleSchema& schema() const override { return child_->schema(); }
  std::string label() const override;
  size_t limit() const { return limit_; }

 protected:
  Status DoOpen() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  size_t limit_;
  size_t emitted_ = 0;
};

/// γ: hash aggregation. Groups by `group_variables`, computes one
/// aggregate per spec into a fresh output variable. It runs XML-QL
/// aggregates and the SQL planner's GROUP BY and DISTINCT (the paper's
/// engine is "equivalent to a standard SQL query engine", §4). SUM is an
/// exact Int while every input is an int, and falls back to Double on a
/// double input or on int64 overflow. Vectorized: one pass over the
/// child's batches updates per-group accumulators column by column — input
/// rows are never buffered.
class HashAggregate : public Operator {
 public:
  enum class Fn { kCount, kSum, kMin, kMax, kAvg };

  struct Spec {
    Fn fn;
    std::string input_variable;   ///< ignored for kCount.
    std::string output_variable;
  };

  HashAggregate(std::unique_ptr<Operator> child,
                std::vector<std::string> group_variables,
                std::vector<Spec> specs);

  const TupleSchema& schema() const override { return schema_; }
  std::string label() const override { return "HashAggregate"; }

  const std::vector<std::string>& group_variables() const {
    return group_variables_;
  }
  const std::vector<Spec>& specs() const { return specs_; }

 protected:
  Status DoOpen() override;
  Result<std::optional<TupleBatch>> DoNextBatch() override;
  void DoClose() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_variables_;
  std::vector<Spec> specs_;
  TupleSchema schema_;
  TupleBatch results_;  ///< one row per group, first-appearance order.
  size_t position_ = 0;
};

}  // namespace algebra
}  // namespace nimble

#endif  // NIMBLE_ALGEBRA_OPERATORS_H_
