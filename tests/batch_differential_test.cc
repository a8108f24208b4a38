#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/rng.h"
#include "core/engine.h"
#include "query_generator.h"
#include "xml/serializer.h"

namespace nimble {
namespace core {
namespace {

/// Differential property tests for the vectorized execution core: the same
/// plan must produce the same rows in the same order regardless of
/// (a) batch size — including the degenerate size 1, which exercises every
/// operator's cross-batch resume state — and (b) whether the consumer
/// pulls batches via NextBatch() or takes one compacted batch from Drain().
/// Divergence at any swept size is a vectorization bug by definition.

constexpr size_t kBatchSizes[] = {1, 3, 1024};

// ---- Hand-built plan shapes (the algebra_test menagerie) -----------------

using algebra::BoundExpr;
using algebra::Operator;
using algebra::TupleBatch;
using algebra::TupleSchema;

std::unique_ptr<algebra::MaterializedScan> MakeScanPtr(
    std::vector<std::string> vars,
    const std::vector<std::vector<Value>>& rows) {
  TupleSchema schema(std::move(vars));
  TupleBatch data(schema.size());
  for (size_t slot = 0; slot < schema.size(); ++slot) {
    for (const std::vector<Value>& row : rows) {
      data.MutableColumn(slot).emplace_back(row[slot]);
    }
  }
  data.SetNumRows(rows.size());
  return std::make_unique<algebra::MaterializedScan>(std::move(schema),
                                                     std::move(data));
}

xmlql::Condition MakeCondition(const std::string& lhs_var,
                               xmlql::Condition::Op op, Value rhs) {
  xmlql::Condition cond;
  cond.op = op;
  cond.lhs.is_variable = true;
  cond.lhs.variable = lhs_var;
  cond.rhs.literal = std::move(rhs);
  return cond;
}

/// The seven operator kinds plus a deep composite, as factories so each
/// (batch size × drain mode) run gets a fresh tree.
struct PlanShape {
  const char* name;
  std::unique_ptr<Operator> (*make)();
};

std::unique_ptr<Operator> ShapeScan() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i), Value::String(i % 2 ? "odd" : "even")});
  }
  return MakeScanPtr({"x", "p"}, std::move(rows));
}

std::unique_ptr<Operator> ShapeFilter() {
  auto scan = ShapeScan();
  xmlql::Condition cond =
      MakeCondition("x", xmlql::Condition::Op::kGt, Value::Int(3));
  Result<BoundExpr> bc = algebra::BindCondition(cond, scan->schema());
  EXPECT_TRUE(bc.ok());
  return std::make_unique<algebra::Filter>(std::move(scan),
                                           std::vector<BoundExpr>{*bc});
}

std::unique_ptr<Operator> ShapeHashJoin() {
  std::vector<std::vector<Value>> left, right;
  for (int i = 0; i < 12; ++i) {
    left.push_back({Value::Int(i % 5), Value::Int(i)});
    right.push_back({Value::Int(i % 7), Value::String("r" + std::to_string(i))});
  }
  return std::make_unique<algebra::HashJoin>(
      MakeScanPtr({"k", "l"}, std::move(left)),
      MakeScanPtr({"k", "r"}, std::move(right)));
}

std::unique_ptr<Operator> ShapeNestedLoopJoin() {
  auto left = MakeScanPtr(
      {"a"}, {{Value::Int(1)}, {Value::Int(5)}, {Value::Int(8)}});
  auto right = MakeScanPtr(
      {"b"}, {{Value::Int(2)}, {Value::Int(4)}, {Value::Int(9)}});
  TupleSchema joined = TupleSchema({"a"}).Merge(TupleSchema({"b"}));
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kLt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "a";
  cond.rhs.is_variable = true;
  cond.rhs.variable = "b";
  Result<BoundExpr> bc = algebra::BindCondition(cond, joined);
  EXPECT_TRUE(bc.ok());
  // A non-equi condition is a Filter over the cartesian join.
  return std::make_unique<algebra::Filter>(
      std::make_unique<algebra::NestedLoopJoin>(std::move(left),
                                                std::move(right)),
      std::vector<BoundExpr>{*bc});
}

std::unique_ptr<Operator> ShapeSort() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({Value::String(i % 3 == 0 ? "b" : "a"), Value::Int(9 - i)});
  }
  return std::make_unique<algebra::Sort>(
      MakeScanPtr({"g", "v"}, std::move(rows)),
      std::vector<algebra::Sort::Key>{{0, false}, {1, true}});
}

std::unique_ptr<Operator> ShapeLimit() {
  return std::make_unique<algebra::Limit>(ShapeScan(), 4);
}

std::unique_ptr<Operator> ShapeAggregate() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 11; ++i) {
    rows.push_back({Value::String(i % 2 ? "odd" : "even"), Value::Int(i)});
  }
  return std::make_unique<algebra::HashAggregate>(
      MakeScanPtr({"g", "v"}, std::move(rows)),
      std::vector<std::string>{"g"},
      std::vector<algebra::HashAggregate::Spec>{
          {algebra::HashAggregate::Fn::kCount, "", "n"},
          {algebra::HashAggregate::Fn::kSum, "v", "total"},
          {algebra::HashAggregate::Fn::kMin, "v", "lo"},
          {algebra::HashAggregate::Fn::kMax, "v", "hi"}});
}

/// Join under filter under sort under limit: batch boundaries from the
/// join land mid-pipeline in every downstream operator.
std::unique_ptr<Operator> ShapeComposite() {
  auto join = ShapeHashJoin();
  xmlql::Condition cond =
      MakeCondition("l", xmlql::Condition::Op::kLt, Value::Int(10));
  Result<BoundExpr> bc = algebra::BindCondition(cond, join->schema());
  EXPECT_TRUE(bc.ok());
  auto filter = std::make_unique<algebra::Filter>(std::move(join),
                                                  std::vector<BoundExpr>{*bc});
  auto sort = std::make_unique<algebra::Sort>(
      std::move(filter), std::vector<algebra::Sort::Key>{{0, false}});
  return std::make_unique<algebra::Limit>(std::move(sort), 7);
}

constexpr PlanShape kShapes[] = {
    {"scan", ShapeScan},         {"filter", ShapeFilter},
    {"hash_join", ShapeHashJoin}, {"nested_loop", ShapeNestedLoopJoin},
    {"sort", ShapeSort},         {"limit", ShapeLimit},
    {"aggregate", ShapeAggregate}, {"composite", ShapeComposite},
};

/// Renders active row `i` of `batch` as "var=value;" pairs.
std::string RenderRow(const TupleSchema& schema, const TupleBatch& batch,
                      size_t i) {
  std::string s;
  for (size_t slot = 0; slot < batch.num_slots(); ++slot) {
    s += schema.variables()[slot] + "=" +
         batch.binding(slot, i).AsScalar().ToString() + ";";
  }
  return s;
}

/// Drains `op` via NextBatch(), rendering each row in arrival order.
std::vector<std::string> DrainBatches(Operator* op) {
  std::vector<std::string> out;
  EXPECT_TRUE(op->Open().ok());
  while (true) {
    Result<std::optional<algebra::TupleBatch>> batch = op->NextBatch();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || !batch->has_value()) break;
    EXPECT_LE((*batch)->size(), op->batch_size());
    for (size_t i = 0; i < (*batch)->size(); ++i) {
      out.push_back(RenderRow(op->schema(), **batch, i));
    }
  }
  op->Close();
  return out;
}

/// Drains `op` into one compacted batch via Drain(), rendering its rows.
std::vector<std::string> DrainCompacted(Operator* op) {
  std::vector<std::string> out;
  Result<TupleBatch> batch = op->Drain();
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return out;
  EXPECT_FALSE(batch->has_selection());
  for (size_t i = 0; i < batch->size(); ++i) {
    out.push_back(RenderRow(op->schema(), *batch, i));
  }
  return out;
}

TEST(BatchDifferentialTest, PlanShapesAgreeAcrossBatchSizesAndDrainModes) {
  for (const PlanShape& shape : kShapes) {
    // Reference: batch drain at the default (largest swept) size.
    std::unique_ptr<Operator> ref_plan = shape.make();
    ref_plan->SetBatchSize(1024);
    const std::vector<std::string> reference = DrainBatches(ref_plan.get());
    EXPECT_FALSE(reference.empty()) << shape.name << ": vacuous shape";

    for (size_t batch_size : kBatchSizes) {
      std::unique_ptr<Operator> batched = shape.make();
      batched->SetBatchSize(batch_size);
      EXPECT_EQ(DrainBatches(batched.get()), reference)
          << shape.name << " diverges at batch_size=" << batch_size
          << " (batch drain)";

      std::unique_ptr<Operator> drained = shape.make();
      drained->SetBatchSize(batch_size);
      EXPECT_EQ(DrainCompacted(drained.get()), reference)
          << shape.name << " diverges at batch_size=" << batch_size
          << " (Drain)";
    }
  }
}

// ---- Whole-engine differential over generated programs -------------------

/// Runs generated XML-QL programs through engines configured at each swept
/// batch size; outcome (status code) and serialized result document must be
/// identical everywhere. Reuses the grammar fuzzer's generator so any
/// fuzzer repro (NIMBLE_FUZZ_SEED/NIMBLE_FUZZ_ITERS) replays here.
TEST(BatchDifferentialTest, GeneratedProgramsAgreeAcrossEngineBatchSizes) {
  testgen::GeneratorFixture fixture = testgen::MakeGeneratorFixture();
  ASSERT_NE(fixture.catalog, nullptr) << "generator fixture setup failed";

  std::vector<std::unique_ptr<IntegrationEngine>> engines;
  for (size_t batch_size : kBatchSizes) {
    EngineOptions opts;
    opts.verify_plans = true;
    opts.batch_size = batch_size;
    engines.push_back(
        std::make_unique<IntegrationEngine>(fixture.catalog.get(), opts));
  }

  Rng rng(testgen::FuzzSeed());
  const size_t iters = testgen::FuzzIters(/*fallback=*/400);
  size_t executed = 0;
  for (size_t i = 0; i < iters; ++i) {
    const std::string text = testgen::GenProgram(rng);

    Result<QueryResult> reference = engines.back()->ExecuteText(text);
    std::string reference_xml;
    if (reference.ok()) {
      ++executed;
      reference_xml = ToXml(*reference->document);
    }
    for (size_t e = 0; e + 1 < engines.size(); ++e) {
      Result<QueryResult> got = engines[e]->ExecuteText(text);
      ASSERT_EQ(got.ok(), reference.ok())
          << "batch_size=" << kBatchSizes[e] << " outcome diverges at iter "
          << i << " (seed " << testgen::FuzzSeed() << "):\n"
          << text;
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), reference.status().code())
            << "batch_size=" << kBatchSizes[e] << " error class diverges:\n"
            << text;
        continue;
      }
      EXPECT_EQ(ToXml(*got->document), reference_xml)
          << "batch_size=" << kBatchSizes[e] << " result diverges at iter "
          << i << " (seed " << testgen::FuzzSeed() << "):\n"
          << text;
    }
  }
  // The property is vacuous unless a healthy share of programs ran.
  EXPECT_GT(executed, iters / 10)
      << "only " << executed << "/" << iters << " programs executed";
}

}  // namespace
}  // namespace core
}  // namespace nimble
