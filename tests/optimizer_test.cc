#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "algebra/operators.h"
#include "algebra/verifier.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "xml/serializer.h"

namespace nimble {
namespace opt {
namespace {

// ---- Cardinality estimator --------------------------------------------------

metadata::ColumnStats NumericColumn(int64_t lo, int64_t hi, int distinct,
                                    bool unique = false) {
  metadata::ColumnStats col;
  col.name = "c";
  col.min = Value::Int(lo);
  col.max = Value::Int(hi);
  col.unique = unique;
  for (int i = 0; i < distinct; ++i) col.sketch.Add(Value::Int(lo + i));
  return col;
}

TEST(CardinalityTest, EqualitySelectivityIsOneOverDistinct) {
  metadata::ColumnStats col = NumericColumn(0, 99, 20);
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kEq,
                                        Value::Int(5), &col, 1000.0),
                   1.0 / 20.0);
  // Unique column: one row out of row_count.
  metadata::ColumnStats key = NumericColumn(0, 999, 1000, /*unique=*/true);
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kEq,
                                        Value::Int(5), &key, 1000.0),
                   1.0 / 1000.0);
  // No statistics: System R default.
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kEq,
                                        Value::Int(5), nullptr, 1000.0),
                   kDefaultEqSelectivity);
}

TEST(CardinalityTest, RangeSelectivityInterpolates) {
  metadata::ColumnStats col = NumericColumn(0, 100, 50);
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kLt,
                                        Value::Int(25), &col, 1000.0),
                   0.25);
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kGe,
                                        Value::Int(25), &col, 1000.0),
                   0.75);
  // Out-of-range literals clamp.
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kGt,
                                        Value::Int(500), &col, 1000.0),
                   1e-6);
  // Non-numeric bounds fall back to the default.
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kLt,
                                        Value::String("m"), nullptr, 1000.0),
                   kDefaultRangeSelectivity);
}

TEST(CardinalityTest, LikeUsesDefault) {
  metadata::ColumnStats col = NumericColumn(0, 100, 50);
  EXPECT_DOUBLE_EQ(ConditionSelectivity(xmlql::Condition::Op::kLike,
                                        Value::String("%x%"), &col, 1000.0),
                   kDefaultLikeSelectivity);
}

TEST(CardinalityTest, JoinSelectivityIsOneOverMaxNdv) {
  EXPECT_DOUBLE_EQ(JoinSelectivity(10.0, 1000.0), 1.0 / 1000.0);
  EXPECT_DOUBLE_EQ(JoinSelectivity(1000.0, 10.0), 1.0 / 1000.0);
  // Estimated join cardinality |L||R|/max(ndv): 100 * 1000 / 1000 = 100.
  EXPECT_DOUBLE_EQ(100.0 * 1000.0 * JoinSelectivity(10.0, 1000.0), 100.0);
}

TEST(CostModelTest, BuildSideAndBindJoinGate) {
  CostModel model;
  EXPECT_TRUE(model.BuildLeft(3.0, 5.0));
  EXPECT_FALSE(model.BuildLeft(5.0, 3.0));
  EXPECT_FALSE(model.BuildLeft(4.0, 4.0));  // tie keeps the legacy side.
  EXPECT_TRUE(model.UseBindJoin(2, 100.0));
  EXPECT_FALSE(model.UseBindJoin(90, 100.0));  // IN list covers the domain.
  EXPECT_TRUE(model.UseBindJoin(90, -1.0));    // unknown NDV: keep binding.
}

TEST(CostModelTest, IndexNestedLoopRescuesCoverageGatedBinds) {
  CostModel model;
  EXPECT_DOUBLE_EQ(model.IndexNestedLoopCost(4), 4.0 * model.index_probe_cost);
  // 90 probes into a 1M-row table crush the scan the coverage gate forces.
  EXPECT_TRUE(model.UseIndexNestedLoop(90, 1'000'000.0, /*has_index=*/true));
  // No index, or unknown table size: fall back to the coverage decision.
  EXPECT_FALSE(model.UseIndexNestedLoop(90, 1'000'000.0, /*has_index=*/false));
  EXPECT_FALSE(model.UseIndexNestedLoop(90, 0.0, /*has_index=*/true));
  // Probes as costly as the scan itself: not worth it.
  EXPECT_FALSE(model.UseIndexNestedLoop(100, 100.0, /*has_index=*/true));
}

TEST(CostModelTest, ScatterGatherCostDividesScanAcrossShards) {
  CostModel model;
  // 4 shards over 40k rows merging 64 groups: overhead + parallel scan +
  // merge, each term priced by its knob.
  EXPECT_DOUBLE_EQ(model.ScatterGatherCost(40'000.0, 4, 64.0),
                   model.scatter_overhead_per_shard * 4.0 +
                       model.scan_cost * 10'000.0 +
                       model.merge_cost_per_row * 64.0);
  // More shards help until the fixed per-shard overhead dominates.
  EXPECT_LT(model.ScatterGatherCost(40'000.0, 4, 64.0),
            model.ScatterGatherCost(40'000.0, 1, 64.0));
  EXPECT_LT(model.ScatterGatherCost(400.0, 1, 64.0),
            model.ScatterGatherCost(400.0, 16, 64.0));
}

// ---- Verifier invariant I13 -------------------------------------------------

std::unique_ptr<algebra::MaterializedScan> MakeScan(size_t rows) {
  algebra::TupleBatch data(1);
  for (size_t i = 0; i < rows; ++i) {
    data.MutableColumn(0).emplace_back(Value::Int(static_cast<int64_t>(i)));
  }
  data.SetNumRows(rows);
  return std::make_unique<algebra::MaterializedScan>(
      algebra::TupleSchema({"x"}), std::move(data), "test");
}

TEST(VerifierI13Test, AnnotationsMustBeAllOrNone) {
  auto scan = MakeScan(5);
  scan->set_estimated_rows(5.0);
  algebra::Limit limit(std::move(scan), 3);
  // Child annotated, parent not: violation.
  EXPECT_FALSE(algebra::VerifyPlan(limit).ok());
  limit.set_estimated_rows(3.0);
  EXPECT_TRUE(algebra::VerifyPlan(limit).ok());
}

TEST(VerifierI13Test, EstimateMayNotGrowThroughRowReducers) {
  auto scan = MakeScan(5);
  scan->set_estimated_rows(5.0);
  algebra::Limit limit(std::move(scan), 3);
  limit.set_estimated_rows(50.0);  // exceeds the child estimate.
  EXPECT_FALSE(algebra::VerifyPlan(limit).ok());
}

// ---- Engine integration -----------------------------------------------------

class OptimizerEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crm_ = std::make_unique<relational::Database>("crm");
    Must(crm_->Execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)"));
    Must(crm_->Execute("INSERT INTO customers VALUES (1, 'Ada'), (2, 'Bob'), "
                       "(3, 'Cleo'), (4, 'Dan')"));

    sales_ = std::make_unique<relational::Database>("sales");
    Must(sales_->Execute(
        "CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, sku TEXT)"));
    Must(sales_->Execute("INSERT INTO orders VALUES (100, 1, 'widget'), "
                         "(101, 2, 'gizmo'), (102, 3, 'widget'), "
                         "(103, 4, 'gadget')"));

    auto products = std::make_unique<connector::XmlConnector>("feed");
    Must(products->PutDocumentText(
        "products",
        "<products>"
        "<product sku=\"widget\"><title>Widget</title></product>"
        "<product sku=\"gizmo\"><title>Gizmo</title></product>"
        "<product sku=\"gadget\"><title>Gadget</title></product>"
        "</products>"));

    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("crm", crm_.get())));
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("sales",
                                                         sales_.get())));
    Must(catalog_->RegisterSource(std::move(products)));

    core::EngineOptions opts;
    opts.verify_plans = true;
    engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get(), opts);
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  static constexpr const char* kThreeWayJoin =
      "WHERE <customers><row><id>$c</id><name>$n</name></row>"
      "</customers> IN \"crm:customers\", "
      "<orders><row><cust>$c</cust><sku>$k</sku></row></orders> "
      "IN \"sales:orders\", "
      "<products><product sku=$k><title>$ti</title></product>"
      "</products> IN \"feed:products\" "
      "CONSTRUCT <line><name>$n</name><title>$ti</title></line>";

  void PutRowCount(const std::string& source, const std::string& collection,
                   double rows) {
    metadata::CollectionStats stats;
    stats.source = source;
    stats.collection = collection;
    stats.row_count = rows;
    stats.analyzed = true;
    catalog_->statistics().Put(std::move(stats));
  }

  std::unique_ptr<relational::Database> crm_;
  std::unique_ptr<relational::Database> sales_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<core::IntegrationEngine> engine_;
};

// Satellite regression: the hash join builds on the smaller input instead
// of always on the right. The 3-row products side becomes the build side
// (marked build=left), and results match the legacy-heuristic arm exactly.
TEST_F(OptimizerEngineTest, HashJoinBuildsOnSmallerSide) {
  Result<core::QueryResult> costed = engine_->ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(costed.ok()) << costed.status().ToString();
  EXPECT_NE(costed->report.plan.find("HashJoin($k, build=left)"),
            std::string::npos)
      << costed->report.plan;

  core::EngineOptions legacy_opts;
  legacy_opts.verify_plans = true;
  legacy_opts.enable_cost_optimizer = false;
  core::IntegrationEngine legacy(catalog_.get(), legacy_opts);
  Result<core::QueryResult> heuristic = legacy.ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
  EXPECT_EQ(heuristic->report.plan.find("build=left"), std::string::npos);
  EXPECT_EQ(ToXml(*costed->document), ToXml(*heuristic->document));
}

// Estimates next to actuals: every operator in plan_with_stats carries an
// est_rows annotation when the optimizer is on, and none when it is off.
TEST_F(OptimizerEngineTest, PlanWithStatsCarriesEstimates) {
  Result<core::QueryResult> r = engine_->ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->report.plan_with_stats.find("est_rows="), std::string::npos);

  core::EngineOptions legacy_opts;
  legacy_opts.enable_cost_optimizer = false;
  core::IntegrationEngine legacy(catalog_.get(), legacy_opts);
  Result<core::QueryResult> l = legacy.ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_EQ(l->report.plan_with_stats.find("est_rows="), std::string::npos);
}

// Golden EXPLAIN flip: changing only the catalog statistics reorders the
// join tree. With products claimed huge, the optimizer joins the two
// relational fragments first and products last; with honest stats the
// products⋈orders join comes first (the seeded shape).
TEST_F(OptimizerEngineTest, StatsChangeFlipsJoinOrder) {
  PutRowCount("feed", "products", 3.0);
  Result<core::QueryResult> before = engine_->ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  // products⋈orders under the customers join: $k joined below $c.
  EXPECT_LT(before->report.plan.find("HashJoin($c)"),
            before->report.plan.find("HashJoin($k"))
      << before->report.plan;

  PutRowCount("feed", "products", 1000000.0);
  Result<core::QueryResult> after = engine_->ExecuteText(kThreeWayJoin);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // customers⋈orders first now; the huge products input joins last, so
  // $k is the root join.
  EXPECT_LT(after->report.plan.find("HashJoin($k"),
            after->report.plan.find("HashJoin($c)"))
      << after->report.plan;
  // Same rows either way — the optimizer only changes the join order
  // (row order within the unordered result may differ).
  EXPECT_EQ(before->report.result_count, after->report.result_count);
}

// Satellite regression: the compiled-plan cache key includes the stats
// epoch, so a stats change evicts (and re-optimizes) instead of serving
// the stale plan; the eviction is counted separately from LRU evictions.
TEST_F(OptimizerEngineTest, PlanCacheEvictsOnStatsEpochChange) {
  Must(engine_->ExecuteText(kThreeWayJoin));
  Must(engine_->ExecuteText(kThreeWayJoin));
  core::PlanCache::Stats s1 = engine_->plan_cache()->stats();
  EXPECT_GE(s1.hits, 1u);
  EXPECT_EQ(s1.stats_evictions, 0u);

  PutRowCount("feed", "products", 1000000.0);  // bumps the epoch
  Must(engine_->ExecuteText(kThreeWayJoin));
  core::PlanCache::Stats s2 = engine_->plan_cache()->stats();
  EXPECT_GE(s2.stats_evictions, 1u);
  EXPECT_EQ(s2.evictions, 0u);  // not an LRU eviction.
}

// Adaptive feedback: a wildly wrong row count is corrected by the first
// execution's observed rows (epoch bump → replan), and the second
// execution's estimate lands within 10x of the actual row count.
TEST_F(OptimizerEngineTest, FeedbackCorrectsMisestimateWithinOneRound) {
  PutRowCount("crm", "customers", 100000.0);
  const char* q =
      "WHERE <customers><row><id>$i</id><name>$n</name></row>"
      "</customers> IN \"crm:customers\" "
      "CONSTRUCT <c><name>$n</name></c>";
  uint64_t epoch_before = catalog_->statistics().epoch();
  Result<core::QueryResult> first = engine_->ExecuteText(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->report.plan_with_stats.find("est_rows=100000"),
            std::string::npos)
      << first->report.plan_with_stats;
  // The observed 4 rows were fed back: stats corrected, epoch advanced.
  EXPECT_GT(catalog_->statistics().epoch(), epoch_before);
  EXPECT_DOUBLE_EQ(
      catalog_->statistics().Get("crm", "customers")->row_count, 4.0);

  Result<core::QueryResult> second = engine_->ExecuteText(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(second->report.plan_with_stats.find(
                "{est_rows=4, batches=1, rows=4}"),
            std::string::npos)
      << second->report.plan_with_stats;
}

// A root estimate that is structurally wrong does not churn the plan cache.
// The estimator ignores pattern literals, so this join's root is estimated
// at ~200 rows against 5 actual. Plans are re-optimized from live
// statistics on every execution, so nothing is gained by evicting the
// cached program: runs 2 and 3 are plan-cache hits and the statistics
// epoch never moves.
TEST(PlanCacheFeedbackTest, PatternLiteralMisestimateKeepsCachedPlan) {
  std::string orders = "<orders>";
  std::string lines = "<lines>";
  for (int oid = 0; oid < 200; ++oid) {
    orders += "<order><oid>" + std::to_string(oid) + "</oid><cust>" +
              std::to_string(oid % 40) + "</cust></order>";
    lines += "<line><oid>" + std::to_string(oid) + "</oid><sku>s" +
             std::to_string(oid % 7) + "</sku></line>";
  }
  auto sales = std::make_unique<connector::XmlConnector>("sales");
  ASSERT_TRUE(sales->PutDocumentText("orders", orders + "</orders>").ok());
  ASSERT_TRUE(sales->PutDocumentText("lines", lines + "</lines>").ok());
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(std::move(sales)).ok());
  core::EngineOptions opts;
  opts.verify_plans = true;
  core::IntegrationEngine engine(&catalog, opts);
  ASSERT_TRUE(engine.Analyze().ok());

  const char* q =
      "WHERE <orders><order><oid>$o</oid><cust>17</cust></order></orders>"
      " IN \"sales:orders\", <lines><line><oid>$o</oid><sku>$s</sku></line>"
      "</lines> IN \"sales:lines\" "
      "CONSTRUCT <l order=$o><sku>$s</sku></l> ORDER BY $o";
  const uint64_t epoch = catalog.statistics().epoch();
  for (int run = 1; run <= 3; ++run) {
    Result<core::QueryResult> r = engine.ExecuteText(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->report.result_count, 5u);
    if (run == 1) {
      // The misestimate is real: the root claims far more rows than ran.
      EXPECT_NE(r->report.plan_with_stats.find("{est_rows=200, batches=1, "
                                               "rows=5}"),
                std::string::npos)
          << r->report.plan_with_stats;
    }
  }
  core::PlanCache::Stats stats = engine.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.stats_evictions, 0u);
  EXPECT_EQ(catalog.statistics().epoch(), epoch);
}

// Per-source pushdown depth: once statistics show the bind-join IN list
// covering most of the remote column's distinct values, the cost model
// drops the bind (it prunes nothing) and ships the plain SQL fragment.
TEST_F(OptimizerEngineTest, BindJoinSkippedWhenKeysCoverDomain) {
  const char* q =
      "WHERE <customers><row><id>$c</id><name>$n</name></row>"
      "</customers> IN \"crm:customers\", "
      "<orders><row><cust>$c</cust><sku>$k</sku></row></orders> "
      "IN \"sales:orders\" "
      "CONSTRUCT <o><name>$n</name><sku>$k</sku></o>";
  // Without stats the historical behavior stands: bind join taken.
  Result<core::QueryResult> blind = engine_->ExecuteText(q);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_NE(blind->report.plan.find("sql+bind:sales:orders"),
            std::string::npos)
      << blind->report.plan;

  // Analyzed: all 4 customer ids cover orders.cust's 4 distinct values.
  Must(engine_->Analyze());
  Result<core::QueryResult> costed = engine_->ExecuteText(q);
  ASSERT_TRUE(costed.ok()) << costed.status().ToString();
  EXPECT_NE(costed->report.plan.find("sql:sales:orders"), std::string::npos)
      << costed->report.plan;
  EXPECT_EQ(costed->report.plan.find("sql+bind:"), std::string::npos);
  EXPECT_EQ(ToXml(*blind->document), ToXml(*costed->document));
}

// ---- Index nested-loop alternative ------------------------------------------

/// RelationalConnector only advertises primary-key indexes; this test
/// double claims a secondary index on orders.cust so the index-nested-loop
/// arm of the gate is reachable (on a PK column NDV equals the row count,
/// which makes "coverage too high" and "probes beat the scan" mutually
/// exclusive).
class IndexedRelationalConnector : public connector::RelationalConnector {
 public:
  using RelationalConnector::RelationalConnector;
  connector::SourceCapabilities capabilities() const override {
    connector::SourceCapabilities caps =
        connector::RelationalConnector::capabilities();
    caps.indexed_columns.emplace_back("orders", "cust");
    return caps;
  }
};

// The coverage gate drops a bind join whose IN list spans the whole cust
// domain — unless the source indexes the column and probing it once per key
// undercuts the full scan. 4 probes (cost 16) against a 40-row scan keep
// the bind; without the index the same statistics drop it. Results are
// identical either way.
TEST_F(OptimizerEngineTest, IndexNestedLoopKeepsBindWhenKeysCoverDomain) {
  // Grow orders to 40 rows over the same 4 customers: the 4-key IN list
  // covers cust's domain (coverage gate fires) while the table is large
  // enough for index probes to beat the scan.
  for (int i = 0; i < 36; ++i) {
    Must(sales_->Execute("INSERT INTO orders VALUES (" +
                         std::to_string(200 + i) + ", " +
                         std::to_string(i % 4 + 1) + ", 'bulk')"));
  }
  metadata::Catalog indexed_catalog;
  Must(indexed_catalog.RegisterSource(
      std::make_unique<connector::RelationalConnector>("crm", crm_.get())));
  Must(indexed_catalog.RegisterSource(
      std::make_unique<IndexedRelationalConnector>("sales", sales_.get())));
  core::EngineOptions opts;
  opts.verify_plans = true;
  core::IntegrationEngine indexed(&indexed_catalog, opts);

  const char* q =
      "WHERE <customers><row><id>$c</id><name>$n</name></row>"
      "</customers> IN \"crm:customers\", "
      "<orders><row><cust>$c</cust><sku>$k</sku></row></orders> "
      "IN \"sales:orders\" "
      "CONSTRUCT <o><name>$n</name><sku>$k</sku></o> ORDER BY $n, $k";

  Must(indexed.Analyze());
  Result<core::QueryResult> kept = indexed.ExecuteText(q);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_NE(kept->report.plan.find("sql+bind:sales:orders"),
            std::string::npos)
      << kept->report.plan;

  // Same statistics, no index claim: the coverage gate drops the bind.
  Must(engine_->Analyze());
  Result<core::QueryResult> dropped = engine_->ExecuteText(q);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_NE(dropped->report.plan.find("sql:sales:orders"), std::string::npos)
      << dropped->report.plan;
  EXPECT_EQ(dropped->report.plan.find("sql+bind:"), std::string::npos);
  EXPECT_EQ(ToXml(*kept->document), ToXml(*dropped->document));
}

}  // namespace
}  // namespace opt
}  // namespace nimble
