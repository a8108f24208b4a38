#include <gtest/gtest.h>

#include "connector/relational_connector.h"
#include "materialize/result_cache.h"
#include "materialize/view_selection.h"
#include "materialize/view_store.h"

namespace nimble {
namespace materialize {
namespace {

// ---- ResultCache ----------------------------------------------------------------

class ResultCacheTest : public ::testing::Test {
 protected:
  NodePtr Doc(const std::string& text) {
    NodePtr doc = Node::Element("doc");
    doc->AddScalarChild("v", Value::String(text));
    return doc;
  }
  // Byte cost of one Doc(); eviction tests size budgets in these units.
  size_t DocBytes() { return Doc("a")->EstimatedBytes(); }
  // Single shard so LRU order is globally deterministic.
  ResultCacheOptions Opts(size_t max_bytes, int64_t ttl_micros = 0) {
    ResultCacheOptions options;
    options.max_bytes = max_bytes;
    options.ttl_micros = ttl_micros;
    options.shards = 1;
    return options;
  }
  VirtualClock clock_;
};

TEST_F(ResultCacheTest, MissThenHit) {
  ResultCache cache(Opts(1 << 20), &clock_);
  EXPECT_EQ(cache.Lookup("q1"), nullptr);
  cache.Insert("q1", Doc("a"));
  ConstNodePtr hit = cache.Lookup("q1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->FindChild("v")->ScalarValue(), Value::String("a"));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);
}

TEST_F(ResultCacheTest, HitsShareOneFrozenSnapshot) {
  // A hit is O(1): the same immutable snapshot is handed to every reader
  // instead of a deep clone per lookup.
  ResultCache cache(Opts(1 << 20), &clock_);
  cache.Insert("q", Doc("a"));
  ConstNodePtr first = cache.Lookup("q");
  ConstNodePtr second = cache.Lookup("q");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_TRUE(first->frozen());
  // Copy-on-write escape hatch: Clone() yields a thawed, mutable copy.
  NodePtr copy = first->Clone();
  EXPECT_FALSE(copy->frozen());
  copy->AddChild(Node::Element("mutation"));
  EXPECT_EQ(cache.Lookup("q")->children().size(), 1u);
}

TEST_F(ResultCacheTest, ByteBudgetLruEviction) {
  // Budget fits two documents (plus slack below a third).
  ResultCache cache(Opts(2 * DocBytes() + DocBytes() / 2), &clock_);
  cache.Insert("a", Doc("a"));
  cache.Insert("b", Doc("b"));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // promotes a
  cache.Insert("c", Doc("c"));            // evicts b (LRU)
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
}

TEST_F(ResultCacheTest, OversizedDocumentRejected) {
  ResultCache cache(Opts(DocBytes() / 2), &clock_);
  cache.Insert("q", Doc("a"));
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ResultCacheTest, TtlExpiry) {
  ResultCache cache(Opts(1 << 20, 1000), &clock_);
  cache.Insert("q", Doc("a"));
  clock_.AdvanceMicros(500);
  EXPECT_NE(cache.Lookup("q"), nullptr);
  clock_.AdvanceMicros(600);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST_F(ResultCacheTest, PerEntryTtlOverridesDefault) {
  ResultCache cache(Opts(1 << 20, 1000), &clock_);
  cache.Insert("long", Doc("a"), /*tags=*/{}, /*ttl_micros=*/10000);
  cache.Insert("short", Doc("b"));
  clock_.AdvanceMicros(5000);
  EXPECT_NE(cache.Lookup("long"), nullptr);
  EXPECT_EQ(cache.Lookup("short"), nullptr);
}

TEST_F(ResultCacheTest, ReplaceRefreshesEntry) {
  ResultCache cache(Opts(1 << 20), &clock_);
  cache.Insert("q", Doc("a"));
  cache.Insert("q", Doc("b"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("q")->FindChild("v")->ScalarValue(),
            Value::String("b"));
}

TEST_F(ResultCacheTest, InvalidateAndClear) {
  ResultCache cache(Opts(1 << 20), &clock_);
  cache.Insert("q", Doc("a"));
  EXPECT_TRUE(cache.Invalidate("q"));
  EXPECT_FALSE(cache.Invalidate("q"));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.Insert("x", Doc("x"));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST_F(ResultCacheTest, InvalidateTagDropsOnlyTaggedEntries) {
  // Entries carry the sources they were computed from; a source update
  // invalidates exactly its dependents.
  ResultCache cache(Opts(1 << 20), &clock_);
  cache.Insert("q1", Doc("a"), {"crm", "hr"});
  cache.Insert("q2", Doc("b"), {"hr"});
  cache.Insert("q3", Doc("c"), {"billing"});
  EXPECT_EQ(cache.InvalidateTag("hr"), 2u);
  EXPECT_EQ(cache.Lookup("q1"), nullptr);
  EXPECT_EQ(cache.Lookup("q2"), nullptr);
  EXPECT_NE(cache.Lookup("q3"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST_F(ResultCacheTest, ZeroBudgetNeverStores) {
  ResultCache cache(Opts(0), &clock_);
  cache.Insert("q", Doc("a"));
  EXPECT_EQ(cache.Lookup("q"), nullptr);
}

TEST_F(ResultCacheTest, LookupOrComputeCachesLeaderResult) {
  ResultCache cache(Opts(1 << 20), &clock_);
  int computes = 0;
  auto compute = [&]() -> Result<ResultCache::Computed> {
    ++computes;
    ResultCache::Computed computed;
    computed.document = Doc("a");
    return computed;
  };
  bool ran = false;
  Result<ConstNodePtr> first = cache.LookupOrCompute("q", compute, &ran);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ran);
  Result<ConstNodePtr> second = cache.LookupOrCompute("q", compute, &ran);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(ran);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first->get(), second->get());
}

TEST_F(ResultCacheTest, LookupOrComputeNeverCachesErrorsOrPartialResults) {
  ResultCache cache(Opts(1 << 20), &clock_);
  Result<ConstNodePtr> failed = cache.LookupOrCompute(
      "q", []() -> Result<ResultCache::Computed> {
        return Status::Unavailable("source down");
      });
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cache.size(), 0u);
  // A non-cacheable (partial) result is returned but not stored.
  int computes = 0;
  auto partial = [&]() -> Result<ResultCache::Computed> {
    ++computes;
    ResultCache::Computed computed;
    computed.document = Doc("partial");
    computed.cacheable = false;
    return computed;
  };
  ASSERT_TRUE(cache.LookupOrCompute("q", partial).ok());
  ASSERT_TRUE(cache.LookupOrCompute("q", partial).ok());
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ResultCacheTest, LegacyConstructorStillWorks) {
  ResultCache cache(1 << 20, 0, &clock_);
  cache.Insert("q", Doc("a"));
  EXPECT_NE(cache.Lookup("q"), nullptr);
}

// ---- View selection ----------------------------------------------------------------

TEST(ViewSelectionTest, GreedyRespectsBudget) {
  std::vector<ViewCandidate> candidates = {
      {"v1", 100, 50, 1, 10},  // benefit 490, density 4.9
      {"v2", 50, 30, 1, 10},   // benefit 290, density 5.8
      {"v3", 200, 40, 1, 5},   // benefit 195, density ~0.98
  };
  SelectionResult result = SelectViewsGreedy(candidates, 150);
  EXPECT_EQ(result.selected, (std::vector<std::string>{"v2", "v1"}));
  EXPECT_DOUBLE_EQ(result.storage_used, 150);
}

TEST(ViewSelectionTest, NeverPicksLosingViews) {
  std::vector<ViewCandidate> candidates = {
      {"loser", 10, 5, 10, 100},  // materialized costs MORE than virtual
  };
  SelectionResult result = SelectViewsGreedy(candidates, 1000);
  EXPECT_TRUE(result.selected.empty());
}

TEST(ViewSelectionTest, GreedyMatchesOptimalOnEasyInstances) {
  std::vector<ViewCandidate> candidates = {
      {"a", 10, 100, 1, 5}, {"b", 20, 100, 1, 5}, {"c", 30, 100, 1, 5}};
  SelectionResult greedy = SelectViewsGreedy(candidates, 60);
  SelectionResult optimal = SelectViewsOptimal(candidates, 60);
  EXPECT_DOUBLE_EQ(greedy.workload_cost, optimal.workload_cost);
  EXPECT_EQ(greedy.selected.size(), 3u);
}

TEST(ViewSelectionTest, OptimalNeverWorseThanGreedy) {
  // Property over deterministic pseudo-random instances.
  for (int seed = 1; seed <= 20; ++seed) {
    std::vector<ViewCandidate> candidates;
    for (int i = 0; i < 8; ++i) {
      ViewCandidate c;
      c.view_name = "v" + std::to_string(i);
      c.storage_cost = 1 + (seed * 7 + i * 13) % 50;
      c.virtual_cost = 10 + (seed * 11 + i * 3) % 90;
      c.materialized_cost = 1;
      c.query_frequency = 1 + (seed + i) % 10;
      candidates.push_back(c);
    }
    double budget = 80;
    SelectionResult greedy = SelectViewsGreedy(candidates, budget);
    SelectionResult optimal = SelectViewsOptimal(candidates, budget);
    EXPECT_LE(optimal.workload_cost, greedy.workload_cost + 1e-9)
        << "seed " << seed;
    EXPECT_LE(optimal.storage_used, budget);
    EXPECT_LE(greedy.storage_used, budget);
  }
}

TEST(ViewSelectionTest, ZeroBudgetSelectsNothing) {
  std::vector<ViewCandidate> candidates = {{"v", 10, 100, 1, 5}};
  EXPECT_TRUE(SelectViewsGreedy(candidates, 0).selected.empty());
  EXPECT_TRUE(SelectViewsOptimal(candidates, 0).selected.empty());
}

// ---- MaterializedViewStore -----------------------------------------------------------

class ViewStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("crm");
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE c (id INT PRIMARY KEY, name TEXT)").ok());
    ASSERT_TRUE(
        db_->Execute("INSERT INTO c VALUES (1, 'Ada'), (2, 'Bob')").ok());
    catalog_ = std::make_unique<metadata::Catalog>();
    ASSERT_TRUE(catalog_
                    ->RegisterSource(
                        std::make_unique<connector::RelationalConnector>(
                            "crm", db_.get()))
                    .ok());
    ASSERT_TRUE(catalog_
                    ->DefineView("people", R"(
                      WHERE <c><row><id>$i</id><name>$n</name></row></c>
                            IN "crm:c"
                      CONSTRUCT <person id=$i>$n</person>
                    )")
                    .ok());
    engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get());
    store_ = std::make_unique<MaterializedViewStore>(catalog_.get(),
                                                     engine_.get(), &clock_);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<core::IntegrationEngine> engine_;
  VirtualClock clock_;
  std::unique_ptr<MaterializedViewStore> store_;
};

TEST_F(ViewStoreTest, VirtualServeWhenNotMaterialized) {
  EXPECT_FALSE(store_->IsMaterialized("people"));
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 2u);
  EXPECT_GT(result->report.rows_shipped, 0u);  // sources contacted
}

TEST_F(ViewStoreTest, MaterializedServeShipsNothing) {
  ASSERT_TRUE(store_->Materialize("people").ok());
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 2u);
  EXPECT_EQ(result->report.rows_shipped, 0u);  // local copy
  EXPECT_EQ(result->report.source_latency_micros, 0);
}

TEST_F(ViewStoreTest, ServesShareOneFrozenCopy) {
  ASSERT_TRUE(store_->Materialize("people").ok());
  Result<core::QueryResult> first = store_->Query("people");
  Result<core::QueryResult> second = store_->Query("people");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->document.get(), second->document.get());
  EXPECT_TRUE(first->document->frozen());

  // Copy-on-write: editing one serve leaves the local copy unchanged.
  NodePtr edited = first->MutableDocument();
  EXPECT_NE(edited.get(), second->document.get());
  edited->AddChild(Node::Element("extra"));
  Result<core::QueryResult> third = store_->Query("people");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->document.get(), second->document.get());
  EXPECT_EQ(third->document->children().size(), 2u);
  EXPECT_EQ(third->report.result_count, 2u);
}

TEST_F(ViewStoreTest, OnStaleRefreshPicksUpSourceChanges) {
  MaterializationPolicy policy;
  policy.refresh = MaterializationPolicy::Refresh::kOnStale;
  ASSERT_TRUE(store_->Materialize("people", policy).ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES (3, 'Cleo')").ok());
  EXPECT_TRUE(*store_->IsStale("people"));
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 3u);  // refreshed before serving
  EXPECT_FALSE(*store_->IsStale("people"));
}

TEST_F(ViewStoreTest, ManualPolicyServesStaleData) {
  MaterializationPolicy policy;
  policy.refresh = MaterializationPolicy::Refresh::kManualOnly;
  ASSERT_TRUE(store_->Materialize("people", policy).ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES (3, 'Cleo')").ok());
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 2u);  // stale copy
  EXPECT_EQ(store_->stats().stale_serves, 1u);
  // Manual refresh catches up.
  ASSERT_TRUE(store_->Refresh("people").ok());
  result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 3u);
}

TEST_F(ViewStoreTest, TtlPolicyRefreshesOnSchedule) {
  MaterializationPolicy policy;
  policy.refresh = MaterializationPolicy::Refresh::kTtl;
  policy.ttl_micros = 1000;
  ASSERT_TRUE(store_->Materialize("people", policy).ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES (3, 'Cleo')").ok());
  clock_.AdvanceMicros(500);
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 2u);  // within TTL: stale
  clock_.AdvanceMicros(600);
  result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.result_count, 3u);  // TTL elapsed: refreshed
}

TEST_F(ViewStoreTest, DropReturnsToVirtual) {
  ASSERT_TRUE(store_->Materialize("people").ok());
  ASSERT_TRUE(store_->Drop("people").ok());
  EXPECT_FALSE(store_->IsMaterialized("people"));
  EXPECT_EQ(store_->Drop("people").code(), StatusCode::kNotFound);
  Result<core::QueryResult> result = store_->Query("people");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.rows_shipped, 0u);
}

TEST_F(ViewStoreTest, UnknownViewErrors) {
  EXPECT_EQ(store_->Materialize("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->Query("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->IsStale("people").status().code(), StatusCode::kNotFound);
}

TEST_F(ViewStoreTest, StorageCostGrowsWithMaterialization) {
  EXPECT_EQ(store_->StorageCost(), 0u);
  ASSERT_TRUE(store_->Materialize("people").ok());
  EXPECT_GT(store_->StorageCost(), 0u);
}

TEST_F(ViewStoreTest, AgeTracksVirtualClock) {
  ASSERT_TRUE(store_->Materialize("people").ok());
  clock_.AdvanceMicros(1234);
  Result<int64_t> age = store_->AgeMicros("people");
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(*age, 1234);
}

}  // namespace
}  // namespace materialize
}  // namespace nimble
