#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "admin/monitor.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "connector/simulated_source.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "dist/cluster.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "frontend/load_balancer.h"
#include "metadata/catalog.h"
#include "metadata/fragment_map.h"
#include "xml/serializer.h"
#include "xmlql/parser.h"

namespace nimble {
namespace dist {
namespace {

/// End-to-end tests for the scatter-gather subsystem: partitioning,
/// pruning, gathered bindings run through the local engine's plan
/// (canonical order, aggregation, CONSTRUCT), straggler degradation,
/// repartitioning, and the monitor surface. The correctness oracle
/// throughout is the coordinator's local engine called directly, which
/// runs the same query over the unsharded global catalog.

constexpr size_t kItems = 16;

/// Items 0..n-1 in four groups. `bonus` is set on ids 0-2 only, so groups
/// a-c each have one non-null bonus among nulls and group d has none.
std::string ItemsXml(size_t n) {
  static const char* kGroups[] = {"a", "b", "c", "d"};
  std::string xml = "<items>";
  for (size_t i = 0; i < n; ++i) {
    xml += "<item><id>" + std::to_string(i) + "</id><grp>" + kGroups[i % 4] +
           "</grp><val>" + std::to_string((i * 7) % 23) + "</val><bonus>" +
           (i < 3 ? std::to_string(10 + i) : "") + "</bonus></item>";
  }
  return xml + "</items>";
}

NodePtr ItemsTree(size_t n) {
  static const char* kGroups[] = {"a", "b", "c", "d"};
  NodePtr root = Node::Element("items");
  for (size_t i = 0; i < n; ++i) {
    NodePtr item = root->AddChild(Node::Element("item"));
    item->AddScalarChild("id", Value::Int(static_cast<int64_t>(i)));
    item->AddScalarChild("grp", Value::String(kGroups[i % 4]));
    item->AddScalarChild("val", Value::Int(static_cast<int64_t>((i * 7) % 23)));
  }
  return root;
}

constexpr char kOrderedQuery[] =
    "WHERE <items><item><id>$i</id><grp>$g</grp><val>$v</val></item></items>"
    " IN \"src:items\", $i > 2 "
    "CONSTRUCT <r><id>$i</id><g>$g</g><v>$v</v></r> ORDER BY $i DESC LIMIT 5";

constexpr char kUnorderedQuery[] =
    "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
    " IN \"src:items\" CONSTRUCT <r><id>$i</id><g>$g</g></r>";

constexpr char kAggregateQuery[] =
    "WHERE <items><item><grp>$g</grp><val>$v</val></item></items>"
    " IN \"src:items\" "
    "CONSTRUCT <o><k>$g</k><n>count($v)</n><s>sum($v)</s><a>avg($v)</a>"
    "<lo>min($v)</lo><hi>max($v)</hi></o> GROUP BY $g ORDER BY $g";

/// A template spelled with the element names the old XML transport used
/// for its sort-key and partial-aggregate annotations.
constexpr char kReservedNamesQuery[] =
    "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
    " IN \"src:items\" "
    "CONSTRUCT <__npart><__nsk0>$i</__nsk0><g>$g</g></__npart> "
    "ORDER BY $i LIMIT 6";

constexpr char kNullInputsAggregateQuery[] =
    "WHERE <items><item><grp>$g</grp><bonus>$b</bonus></item></items>"
    " IN \"src:items\" "
    "CONSTRUCT <o><k>$g</k><n>count($b)</n><s>sum($b)</s><a>avg($b)</a>"
    "<lo>min($b)</lo><hi>max($b)</hi></o> GROUP BY $g ORDER BY $g";

constexpr char kElementOrderQuery[] =
    "WHERE <items><item><id>$i</id><val ELEMENT_AS $e>$v</val></item>"
    "</items> IN \"src:items\" "
    "CONSTRUCT <r><id>$i</id>$e</r> ORDER BY $e DESC LIMIT 5";

struct DistFixture {
  std::unique_ptr<metadata::Catalog> catalog;
  std::unique_ptr<ShardCluster> cluster;
  std::unique_ptr<Coordinator> coordinator;
  connector::XmlConnector* src = nullptr;  ///< owned by the catalog.
};

DistFixture MakeDist(size_t shards,
                     metadata::FragmentMap::Kind kind =
                         metadata::FragmentMap::Kind::kHash,
                     ShardClusterOptions cluster_options = {},
                     DistOptions dist_options = {},
                     const std::string& items_xml = ItemsXml(kItems)) {
  DistFixture fx;
  auto src = std::make_unique<connector::XmlConnector>("src");
  EXPECT_TRUE(src->PutDocumentText("items", items_xml).ok());
  fx.src = src.get();
  fx.catalog = std::make_unique<metadata::Catalog>();
  EXPECT_TRUE(fx.catalog->RegisterSource(std::move(src)).ok());
  EXPECT_TRUE(fx.catalog
                  ->DefineView("cheap",
                               "WHERE <items><item><id>$i</id><val>$v</val>"
                               "</item></items> IN \"src:items\", $v > 10 "
                               "CONSTRUCT <e><id>$i</id></e>")
                  .ok());
  cluster_options.num_shards = shards;
  fx.cluster =
      std::make_unique<ShardCluster>(fx.catalog.get(), cluster_options);
  PartitionSpec spec;
  spec.source = "src";
  spec.collection = "items";
  spec.partition_key = "id";
  spec.kind = kind;
  EXPECT_TRUE(fx.cluster->Partition(spec).ok());
  EXPECT_TRUE(fx.cluster->Init().ok());
  core::EngineOptions local_options;
  local_options.verify_plans = true;
  fx.coordinator = std::make_unique<Coordinator>(fx.cluster.get(),
                                                 dist_options, local_options);
  return fx;
}

std::vector<std::string> ChildrenXml(const Node& doc) {
  std::vector<std::string> out;
  out.reserve(doc.children().size());
  for (const NodePtr& child : doc.children()) out.push_back(ToXml(*child));
  return out;
}

std::vector<std::string> SortedChildrenXml(const Node& doc) {
  std::vector<std::string> out = ChildrenXml(doc);
  std::sort(out.begin(), out.end());
  return out;
}

size_t ShardPlanCacheHits(DistFixture& fx) {
  size_t hits = 0;
  for (size_t shard = 0; shard < fx.cluster->num_shards(); ++shard) {
    hits += fx.cluster->shard_engine(shard)->plan_cache()->stats().hits;
  }
  return hits;
}

/// Whether some group's `bonus` inputs are all null on one shard but not on
/// another — the shape the null-input aggregate case needs.
bool SomeGroupIsNullOnlyOnSomeShards(const DistFixture& fx) {
  std::map<std::string, std::set<bool>> seen;  // group → {shard has a value}
  for (size_t shard = 0; shard < fx.cluster->num_shards(); ++shard) {
    ConstNodePtr fragment = fx.cluster->registry().Get("src", "items", shard);
    std::map<std::string, bool> has_value;
    for (const NodePtr& item : fragment->children()) {
      bool& any = has_value[item->FindChild("grp")->ScalarValue().ToString()];
      any = any || !item->FindChild("bonus")->ScalarValue().is_null();
    }
    for (const auto& [group, any] : has_value) seen[group].insert(any);
  }
  for (const auto& [group, kinds] : seen) {
    if (kinds.size() == 2) return true;
  }
  return false;
}

// ---- Partitioner units ----------------------------------------------------

TEST(PartitionTest, HashPartitionRoutesEveryRecordByKey) {
  NodePtr tree = ItemsTree(kItems);
  PartitionSpec spec;
  spec.source = "src";
  spec.collection = "items";
  spec.partition_key = "id";
  spec.kind = metadata::FragmentMap::Kind::kHash;
  spec.num_fragments = 4;
  Result<PartitionedCollection> part = PartitionCollection(*tree, spec);
  ASSERT_TRUE(part.ok()) << part.status().ToString();

  ASSERT_EQ(part->fragments.size(), 4u);
  size_t total = 0;
  for (size_t f = 0; f < part->fragments.size(); ++f) {
    for (const NodePtr& record : part->fragments[f]->children()) {
      Value key = PartitionKeyOf(*record, "id");
      EXPECT_EQ(part->map.FragmentForKey(key), f)
          << "record with id " << key.ToString() << " landed on fragment "
          << f;
      ++total;
    }
  }
  EXPECT_EQ(total, kItems);
}

TEST(PartitionTest, RangePartitionBoundsAscendAndPrune) {
  NodePtr tree = ItemsTree(kItems);
  PartitionSpec spec;
  spec.source = "src";
  spec.collection = "items";
  spec.partition_key = "id";
  spec.kind = metadata::FragmentMap::Kind::kRange;
  spec.num_fragments = 4;
  Result<PartitionedCollection> part = PartitionCollection(*tree, spec);
  ASSERT_TRUE(part.ok()) << part.status().ToString();

  const metadata::FragmentMap& map = part->map;
  ASSERT_EQ(map.range_upper_bounds.size(), 3u);
  EXPECT_TRUE(map.range_upper_bounds[0] < map.range_upper_bounds[1]);
  EXPECT_TRUE(map.range_upper_bounds[1] < map.range_upper_bounds[2]);

  // Keys 0..15 split equi-depth: a probe below the first bound prunes to
  // fragment 0 alone; one at/above the last bound prunes to the last.
  std::vector<size_t> low =
      map.FragmentsForCondition(xmlql::Condition::Op::kLt, Value::Int(1));
  ASSERT_EQ(low.size(), 1u);
  EXPECT_EQ(low[0], 0u);
  std::vector<size_t> high =
      map.FragmentsForCondition(xmlql::Condition::Op::kGe, Value::Int(15));
  ASSERT_EQ(high.size(), 1u);
  EXPECT_EQ(high[0], 3u);
  std::vector<size_t> eq =
      map.FragmentsForCondition(xmlql::Condition::Op::kEq, Value::Int(5));
  ASSERT_EQ(eq.size(), 1u);
  EXPECT_EQ(eq[0], map.FragmentForKey(Value::Int(5)));
  // Inequality cannot prune: every fragment may hold a non-matching key.
  EXPECT_EQ(
      map.FragmentsForCondition(xmlql::Condition::Op::kNe, Value::Int(5))
          .size(),
      4u);
}

TEST(PartitionTest, RangePartitionFailsWithTooFewDistinctKeys) {
  NodePtr root = Node::Element("items");
  for (int i = 0; i < 6; ++i) {
    NodePtr item = root->AddChild(Node::Element("item"));
    item->AddScalarChild("id", Value::Int(i % 2));  // two distinct keys
  }
  PartitionSpec spec;
  spec.source = "src";
  spec.collection = "items";
  spec.partition_key = "id";
  spec.kind = metadata::FragmentMap::Kind::kRange;
  spec.num_fragments = 4;
  EXPECT_FALSE(PartitionCollection(*root, spec).ok());
}

// ---- Scatter-gather vs the local oracle -----------------------------------

TEST(CoordinatorTest, ScatterMatchesLocalEngineOnHashShards) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  struct Case {
    const char* name;
    const char* text;
    bool ordered;
  };
  ASSERT_TRUE(SomeGroupIsNullOnlyOnSomeShards(fx));
  const Case cases[] = {
      {"ordered", kOrderedQuery, true},
      {"unordered", kUnorderedQuery, false},
      {"aggregate", kAggregateQuery, true},
      {"reserved_names", kReservedNamesQuery, true},
      {"null_inputs_aggregate", kNullInputsAggregateQuery, true},
      {"element_order", kElementOrderQuery, true},
  };
  for (const Case& c : cases) {
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(c.text);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(c.text);
    ASSERT_TRUE(want.ok()) << c.name << ": " << want.status().ToString();
    if (c.ordered) {
      EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document))
          << c.name << " diverges from the local oracle";
    } else {
      EXPECT_EQ(SortedChildrenXml(*got->document),
                SortedChildrenXml(*want->document))
          << c.name << " diverges from the local oracle";
    }
    EXPECT_EQ(got->document->GetAttribute("complete"), Value::Bool(true))
        << c.name;
    EXPECT_TRUE(got->report.completeness.complete) << c.name;
  }
  CoordinatorCounters counters = fx.coordinator->counters();
  EXPECT_EQ(counters.scatter_queries, 6u);
  EXPECT_EQ(counters.fallback_queries, 0u);
  EXPECT_EQ(counters.subqueries, 24u);
  EXPECT_GT(counters.merge_rows, 0u);

  // Shards compile the query text through their own plan caches, so a
  // repeated scattered query is a hit on every target shard.
  const size_t hits_before = ShardPlanCacheHits(fx);
  ASSERT_TRUE(fx.coordinator->ExecuteText(kAggregateQuery).ok());
  EXPECT_EQ(ShardPlanCacheHits(fx), hits_before + 4);
}

TEST(CoordinatorTest, ScatterMatchesLocalEngineOnRangeShards) {
  DistFixture fx = MakeDist(4, metadata::FragmentMap::Kind::kRange);
  ASSERT_NE(fx.coordinator, nullptr);

  for (const char* text : {kOrderedQuery, kAggregateQuery}) {
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document))
        << text;
  }
  EXPECT_EQ(fx.coordinator->counters().scatter_queries, 2u);

  // Range maps prune on inequalities: ids < 4 live on the first shard only.
  Result<core::QueryResult> pruned = fx.coordinator->ExecuteText(
      "WHERE <items><item><id>$i</id></item></items> IN \"src:items\", "
      "$i < 4 CONSTRUCT <r><id>$i</id></r> ORDER BY $i");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->document->children().size(), 4u);
  EXPECT_GE(fx.coordinator->counters().shards_pruned, 3u);
}

TEST(CoordinatorTest, HashPruningOnPartitionKeyEquality) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  const char* text =
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\", $i = 7 CONSTRUCT <r><id>$i</id><g>$g</g></r>";
  Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->document->children().size(), 1u);
  Result<core::QueryResult> want =
      fx.coordinator->local_engine()->ExecuteText(text);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document));

  CoordinatorCounters counters = fx.coordinator->counters();
  EXPECT_EQ(counters.scatter_queries, 1u);
  EXPECT_EQ(counters.shards_pruned, 3u);
  EXPECT_EQ(counters.subqueries, 1u);

  // A literal flipped to the left-hand side prunes identically.
  Result<core::QueryResult> flipped = fx.coordinator->ExecuteText(
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\", 7 = $i CONSTRUCT <r><id>$i</id><g>$g</g></r>");
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ(ChildrenXml(*flipped->document), ChildrenXml(*want->document));
  EXPECT_EQ(fx.coordinator->counters().shards_pruned, 6u);
}

TEST(CoordinatorTest, NonScatterableQueriesFallBackToLocal) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  // Multi-pattern join and mediated-view expansion both run undistributed,
  // and still answer correctly.
  const char* join_text =
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\",\n"
      "      <items><item><id>$j</id><grp>$g</grp></item></items>"
      " IN \"src:items\", $i < $j "
      "CONSTRUCT <pair><a>$i</a><b>$j</b></pair> ORDER BY $i, $j";
  const char* view_text =
      "WHERE <results><e><id>$i</id></e></results> IN \"cheap\" "
      "CONSTRUCT <r><id>$i</id></r> ORDER BY $i";
  for (const char* text : {join_text, view_text}) {
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(text);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document))
        << text;
  }
  CoordinatorCounters counters = fx.coordinator->counters();
  EXPECT_EQ(counters.scatter_queries, 0u);
  EXPECT_EQ(counters.fallback_queries, 2u);
}

TEST(CoordinatorTest, ExplainShowsScatterAndGatherRows) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  Result<core::QueryResult> got = fx.coordinator->ExecuteText(kOrderedQuery);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::string& plan = got->report.plan;
  EXPECT_EQ(plan.rfind("scatter: src:items shards=[0,1,2,3] of 4 pruned=0 "
                       "key=id (hash) est_cost=",
                       0),
            0u)
      << plan;
  EXPECT_NE(plan.find("-- shard 0 --\nScan(fetch:src:items"), std::string::npos)
      << plan;
  // 13 rows pass $i > 2. They feed the engine's own plan: ORDER BY, then
  // LIMIT.
  EXPECT_NE(plan.find("-- shard 3 --\nScan(fetch:src:items, 4 tuples) "
                      "[$i, $g, $v]\n"
                      "Limit(5) [$i, $g, $v]\n"
                      "  Sort [$i, $g, $v]\n"
                      "    Scan(gather:src:items, 13 tuples) [$i, $g, $v]\n"),
            std::string::npos)
      << plan;
  const std::string& stats = got->report.plan_with_stats;
  EXPECT_EQ(stats.rfind("scatter: src:items", 0), 0u) << stats;
  EXPECT_NE(stats.find("Scan(gather:src:items, 13 tuples) [$i, $g, $v] "
                       "{est_rows="),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("Sort [$i, $g, $v] {est_rows="), std::string::npos)
      << stats;
  EXPECT_EQ(fx.coordinator->counters().merge_rows, 13u);
}

// Every single-pattern branch over a sharded collection scatters, whatever
// its aggregation: ELEMENT_AS bindings, a repeated grouping key, an
// aggregate named like a grouping key, ORDER BY off the grouping keys. Each
// answers exactly as the local engine does, or fails with the same code: the
// repeated key and the colliding name are analysis errors (kParseError at
// parse time, with or without verify_plans), as is ORDER BY off the keys.
TEST(CoordinatorTest, AggregationShapesScatterAndMatchLocal) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  const char* const kShapes[] = {
      // Aggregation over a pattern with an ELEMENT_AS binding.
      "WHERE <items><item><grp>$g</grp><val ELEMENT_AS $e>$v</val></item>"
      "</items> IN \"src:items\" "
      "CONSTRUCT <o><k>$g</k><n>count($v)</n><hi>max($e)</hi></o> "
      "GROUP BY $g ORDER BY $g",
      // Grouping on an ELEMENT_AS binding.
      "WHERE <items><item><id>$i</id><val ELEMENT_AS $e>$v</val></item>"
      "</items> IN \"src:items\" CONSTRUCT <o>$e<n>count($i)</n></o> "
      "GROUP BY $e ORDER BY $e",
      // A duplicate GROUP BY variable.
      "WHERE <items><item><grp>$g</grp><val>$v</val></item></items>"
      " IN \"src:items\" CONSTRUCT <o><k>$g</k><n>count($v)</n></o> "
      "GROUP BY $g, $g ORDER BY $g",
      // An aggregate output named like a grouping key (count($v) is
      // carried as $count_v).
      "WHERE <items><item><grp>$count_v</grp><val>$v</val></item></items>"
      " IN \"src:items\" CONSTRUCT <o><k>$count_v</k><n>count($v)</n></o> "
      "GROUP BY $count_v ORDER BY $count_v",
      // ORDER BY a variable that is not a grouping key.
      "WHERE <items><item><grp>$g</grp><val>$v</val></item></items>"
      " IN \"src:items\" CONSTRUCT <o><k>$g</k><n>count($v)</n></o> "
      "GROUP BY $g ORDER BY $v",
  };
  size_t answered = 0;
  for (const char* text : kShapes) {
    const uint64_t scattered = fx.coordinator->counters().scatter_queries;
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(text);
    ASSERT_EQ(got.ok(), want.ok())
        << text << "\nsharded: " << got.status().ToString()
        << "\nlocal: " << want.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << text;
      continue;
    }
    ++answered;
    EXPECT_EQ(fx.coordinator->counters().scatter_queries, scattered + 1)
        << text;
    EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document))
        << text;
  }
  // The ELEMENT_AS shapes answer; the other three fail on both sides.
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(fx.coordinator->counters().fallback_queries, 0u);
}

// A UNION scatters the branches that can scatter and runs the rest — here
// a self-join — on the local engine, in one answer.
TEST(CoordinatorTest, UnionScattersOneBranchAndRunsTheJoinLocally) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  const char* text =
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\", $i < 6 "
      "CONSTRUCT <r><id>$i</id><g>$g</g></r> ORDER BY $i "
      "UNION "
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\",\n"
      "      <items><item><id>$j</id><grp>$g</grp></item></items>"
      " IN \"src:items\", $i < $j "
      "CONSTRUCT <pair><a>$i</a><b>$j</b></pair> ORDER BY $i, $j";
  Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<core::QueryResult> want =
      fx.coordinator->local_engine()->ExecuteText(text);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document));
  EXPECT_EQ(got->document->children().size(), 6u + 24u);

  const CoordinatorCounters counters = fx.coordinator->counters();
  EXPECT_EQ(counters.scatter_queries, 1u);
  EXPECT_EQ(counters.fallback_queries, 0u);
  EXPECT_EQ(counters.subqueries, 4u);
  EXPECT_EQ(got->report.plan.rfind("-- branch 0 --\nscatter: src:items", 0),
            0u)
      << got->report.plan;
  const size_t branch1 = got->report.plan.find("-- branch 1 --\n");
  ASSERT_NE(branch1, std::string::npos) << got->report.plan;
  EXPECT_EQ(got->report.plan.find("scatter:", branch1), std::string::npos)
      << got->report.plan;
}

// The local engine's admission control covers every query the coordinator
// runs there: a fully scattered query and a UNION that scatters one branch
// are admitted through its scheduler, as a query with no scattered branch
// is.
TEST(CoordinatorTest, ScatteredQueriesPassTheLocalAdmissionControl) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);
  core::EngineOptions local_options;
  local_options.max_inflight_queries = 1;
  Coordinator coordinator(fx.cluster.get(), {}, local_options);
  ASSERT_NE(coordinator.local_engine()->scheduler(), nullptr);

  const std::string mixed =
      std::string(kUnorderedQuery) +
      " UNION "
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\",\n"
      "      <items><item><id>$j</id><grp>$g</grp></item></items>"
      " IN \"src:items\", $i < $j "
      "CONSTRUCT <pair><a>$i</a><b>$j</b></pair>";
  for (const std::string& text : {std::string(kOrderedQuery), mixed}) {
    Result<core::QueryResult> got = coordinator.ExecuteText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(SortedChildrenXml(*got->document),
              SortedChildrenXml(*want->document))
        << text;
  }
  EXPECT_EQ(coordinator.counters().scatter_queries, 2u);
  EXPECT_EQ(coordinator.local_engine()->scheduler()->stats().admitted, 2u);
}

// Shards answer in an order that depends on how the records were split.
// Queries full of ties — ORDER BY a four-valued key with LIMIT, no ORDER BY
// at all, LIMIT without ORDER BY — must still give the same bytes on any
// shard count.
TEST(CoordinatorTest, TiesGiveIdenticalBytesOnAnyShardCount) {
  const char* const kQueries[] = {
      "WHERE <items><item><id>$i</id><grp>$g</grp><val>$v</val></item>"
      "</items> IN \"src:items\" "
      "CONSTRUCT <r><g>$g</g><v>$v</v></r> ORDER BY $g DESC LIMIT 6",
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\" CONSTRUCT <r><g>$g</g></r>",
      "WHERE <items><item><id>$i</id><grp>$g</grp></item></items>"
      " IN \"src:items\" CONSTRUCT <r><g>$g</g><id>$i</id></r> LIMIT 5",
  };
  std::vector<std::string> reference;
  for (size_t shards = 1; shards <= 4; ++shards) {
    DistFixture fx = MakeDist(shards);
    ASSERT_NE(fx.coordinator, nullptr);
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      Result<core::QueryResult> got = fx.coordinator->ExecuteText(kQueries[q]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string bytes = ToXml(*got->document);
      if (shards == 1) {
        reference.push_back(bytes);
      } else {
        EXPECT_EQ(bytes, reference[q])
            << shards << " shards: " << kQueries[q];
      }
    }
    EXPECT_EQ(fx.coordinator->counters().scatter_queries, std::size(kQueries));
  }
}

// Grouping on an ELEMENT_AS binding whose members share a value but differ
// as XML: each group keeps the same member as its key, whatever order the
// shards' rows arrive in.
TEST(CoordinatorTest, NodeGroupKeysGiveIdenticalBytesOnAnyShardCount) {
  std::string xml = "<items>";
  for (int i = 0; i < 8; ++i) {
    xml += "<item><id>" + std::to_string(i) + "</id><val" +
           (i % 2 == 1 ? " x=\"" + std::to_string(i) + "\"" : "") + ">" +
           std::to_string(i % 3) + "</val></item>";
  }
  xml += "</items>";
  const char* text =
      "WHERE <items><item><id>$i</id><val ELEMENT_AS $e>$v</val></item>"
      "</items> IN \"src:items\" CONSTRUCT <o>$e<n>count($i)</n></o> "
      "GROUP BY $e ORDER BY $e";
  std::string reference;
  for (size_t shards = 1; shards <= 4; ++shards) {
    DistFixture fx = MakeDist(shards, metadata::FragmentMap::Kind::kHash, {},
                              {}, xml);
    ASSERT_NE(fx.coordinator, nullptr);
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(fx.coordinator->counters().scatter_queries, 1u);
    EXPECT_EQ(got->document->children().size(), 3u);
    if (shards == 1) {
      reference = ToXml(*got->document);
    } else {
      EXPECT_EQ(ToXml(*got->document), reference) << shards << " shards";
    }
  }
}

// Values whose answer could follow the order rows arrive in: ones that
// compare equal but print differently (-0.0, 0.0 and 0; 1000000000000 and
// 1e12), and doubles whose sum rounds differently in another order. With
// no other variable bound, the rows tie on every key but their text, and
// still give the same bytes on any shard count, grouped or not.
TEST(CoordinatorTest, OrderSensitiveValuesGiveIdenticalBytesOnAnyShardCount) {
  static const char* kValues[] = {
      "-0.0", "0",   "1e12", "0.0",  "1000000000000", "-0.0", "1e12", "0",
      "0.1",  "0.2", "0.3",  "1e16", "-1e16",         "0.7",  "1.1",  "2.3"};
  std::string xml = "<items>";
  for (size_t i = 0; i < std::size(kValues); ++i) {
    xml += "<item><id>" + std::to_string(i) + "</id><v>" + kValues[i] +
           "</v></item>";
  }
  xml += "</items>";
  const char* const kQueries[] = {
      "WHERE <items><item><v>$v</v></item></items> IN \"src:items\" "
      "CONSTRUCT <r>$v</r>",
      "WHERE <items><item><v>$v</v></item></items> IN \"src:items\" "
      "CONSTRUCT <r>$v</r> ORDER BY $v LIMIT 5",
      "WHERE <items><item><v>$v</v></item></items> IN \"src:items\" "
      "CONSTRUCT <g><k>$v</k><n>count($v)</n><s>sum($v)</s></g> GROUP BY $v",
      "WHERE <items><item><v>$v</v></item></items> IN \"src:items\" "
      "CONSTRUCT <t><s>sum($v)</s><a>avg($v)</a></t>",
  };
  std::vector<std::string> reference;
  for (size_t shards = 1; shards <= 4; ++shards) {
    DistFixture fx = MakeDist(shards, metadata::FragmentMap::Kind::kHash, {},
                              {}, xml);
    ASSERT_NE(fx.coordinator, nullptr);
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      Result<core::QueryResult> got = fx.coordinator->ExecuteText(kQueries[q]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string bytes = ToXml(*got->document);
      if (shards == 1) {
        reference.push_back(bytes);
      } else {
        EXPECT_EQ(bytes, reference[q]) << shards << " shards: " << kQueries[q];
      }
    }
    EXPECT_EQ(fx.coordinator->counters().scatter_queries, std::size(kQueries));
  }
  // Every spelling survives: the rows differ only in how they print.
  for (const char* text : {"<r>-0</r>", "<r>0</r>", "<r>1e+12</r>",
                           "<r>1000000000000</r>"}) {
    EXPECT_NE(reference[0].find(text), std::string::npos) << reference[0];
  }
}

// Scattered UNION branches outnumber the shared pool's workers, and the
// shard engines run on that same pool. Every shard answers before the
// local engine runs the branches, so no pool worker ever waits on a shard.
TEST(CoordinatorTest, ScatteredUnionWiderThanThePoolCompletes) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  const size_t branches = ThreadPool::Shared()->size() + 2;
  std::string text;
  for (size_t b = 0; b < branches; ++b) {
    if (b > 0) text += " UNION ";
    text += "WHERE <items><item><id>$i</id></item></items> IN \"src:items\", "
            "$i >= " +
            std::to_string(b % kItems) +
            " CONSTRUCT <r><id>$i</id></r> ORDER BY $i";
  }
  Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<core::QueryResult> want =
      fx.coordinator->local_engine()->ExecuteText(text);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document));
  EXPECT_EQ(fx.coordinator->counters().subqueries, 4 * branches);
}

// ---- Stragglers and partial results ---------------------------------------

TEST(CoordinatorTest, ShardDeadlineDegradesStragglerToPartial) {
  // Shard 0 runs on a private virtual clock whose simulated source charges
  // ten virtual seconds per fetch — deterministically blowing the 1ms shard
  // deadline without any real waiting.
  VirtualClock vclock;
  ShardClusterOptions cluster_options;
  cluster_options.tweak_engine_options = [&vclock](size_t shard,
                                                   core::EngineOptions* opts) {
    if (shard == 0) {
      opts->clock = &vclock;
      opts->query_deadline_micros = 1000;
    }
  };
  cluster_options.wrap_connector =
      [&vclock](size_t shard, std::unique_ptr<connector::Connector> inner)
      -> std::unique_ptr<connector::Connector> {
    if (shard != 0) return inner;
    connector::SimulationConfig config;
    config.fixed_latency_micros = 10'000'000;
    return std::make_unique<connector::SimulatedSource>(std::move(inner),
                                                        config, &vclock);
  };
  DistFixture fx = MakeDist(4, metadata::FragmentMap::Kind::kHash,
                            std::move(cluster_options));
  ASSERT_NE(fx.coordinator, nullptr);

  core::QueryOptions partial;
  partial.availability = core::AvailabilityPolicy::kPartial;
  Result<core::QueryResult> got =
      fx.coordinator->ExecuteText(kUnorderedQuery, partial);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->document->GetAttribute("complete"), Value::Bool(false));
  EXPECT_FALSE(got->report.completeness.complete);
  const std::string missing =
      got->document->GetAttribute("missing_sources").ToString();
  EXPECT_NE(missing.find("#shard0"), std::string::npos) << missing;
  ASSERT_EQ(got->report.completeness.unavailable_sources.size(), 1u);
  EXPECT_NE(got->report.plan.find("-- shard 0 (degraded) --\n-- shard 1 --"),
            std::string::npos)
      << got->report.plan;
  // The three healthy shards still answered: every surviving row is real.
  Result<core::QueryResult> want =
      fx.coordinator->local_engine()->ExecuteText(kUnorderedQuery);
  ASSERT_TRUE(want.ok());
  std::vector<std::string> all = SortedChildrenXml(*want->document);
  for (const std::string& row : SortedChildrenXml(*got->document)) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), row)) << row;
  }
  EXPECT_LT(got->document->children().size(), want->document->children().size());

  CoordinatorCounters counters = fx.coordinator->counters();
  EXPECT_GE(counters.stragglers, 1u);
  EXPECT_GE(counters.partial_results, 1u);

  // A required source must not be silently dropped, even under kPartial.
  core::QueryOptions required = partial;
  required.required_sources = {"src"};
  Result<core::QueryResult> strict =
      fx.coordinator->ExecuteText(kUnorderedQuery, required);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable)
      << strict.status().ToString();

  // Fail-fast propagates the straggler's timeout instead of degrading.
  core::QueryOptions fail_fast;
  fail_fast.availability = core::AvailabilityPolicy::kFailFast;
  Result<core::QueryResult> strict2 =
      fx.coordinator->ExecuteText(kUnorderedQuery, fail_fast);
  ASSERT_FALSE(strict2.ok());
  EXPECT_EQ(strict2.status().code(), StatusCode::kTimeout)
      << strict2.status().ToString();
}

// The shard deadline is the shard engines' own query_deadline_micros, set
// once on the cluster's engine template. Each shard runs on a private
// virtual clock, and shard 0's source charges ten virtual seconds per
// fetch: only shard 0 blows the 1ms deadline, with no real waiting.
TEST(CoordinatorTest, TemplateDeadlineDegradesStragglerToPartial) {
  VirtualClock clocks[4];
  ShardClusterOptions cluster_options;
  cluster_options.engine_options.query_deadline_micros = 1000;
  cluster_options.tweak_engine_options = [&clocks](size_t shard,
                                                   core::EngineOptions* opts) {
    opts->clock = &clocks[shard];
  };
  cluster_options.wrap_connector =
      [&clocks](size_t shard, std::unique_ptr<connector::Connector> inner)
      -> std::unique_ptr<connector::Connector> {
    if (shard != 0) return inner;
    connector::SimulationConfig config;
    config.fixed_latency_micros = 10'000'000;
    return std::make_unique<connector::SimulatedSource>(std::move(inner),
                                                        config, &clocks[0]);
  };
  DistFixture fx = MakeDist(4, metadata::FragmentMap::Kind::kHash,
                            std::move(cluster_options));
  ASSERT_NE(fx.coordinator, nullptr);

  core::QueryOptions partial;
  partial.availability = core::AvailabilityPolicy::kPartial;
  Result<core::QueryResult> got =
      fx.coordinator->ExecuteText(kUnorderedQuery, partial);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->report.completeness.complete);
  EXPECT_EQ(got->report.completeness.unavailable_sources,
            std::vector<std::string>{"src:items#shard0"});
  EXPECT_GT(got->document->children().size(), 0u);
  EXPECT_LT(got->document->children().size(), kItems);
  EXPECT_EQ(fx.coordinator->counters().stragglers, 1u);

  // A point query pruned to shard 0 alone loses every target shard: the
  // branch degrades like a failed fetch and is listed as skipped.
  const metadata::FragmentMap* map = fx.catalog->fragment_map("src", "items");
  ASSERT_NE(map, nullptr);
  int64_t id = 0;
  while (map->FragmentForKey(Value::Int(id)) != 0) ++id;
  Result<core::QueryResult> point = fx.coordinator->ExecuteText(
      "WHERE <items><item><id>$i</id></item></items> IN \"src:items\", "
      "$i = " + std::to_string(id) + " CONSTRUCT <r><id>$i</id></r>",
      partial);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->document->children().size(), 0u);
  EXPECT_FALSE(point->report.completeness.complete);
  EXPECT_EQ(point->report.completeness.skipped_branches,
            std::vector<size_t>{0});
  EXPECT_NE(point->report.plan.find("-- shard 0 (degraded) --"),
            std::string::npos)
      << point->report.plan;
}

TEST(CoordinatorTest, StragglerWaitBudgetCancelsSlowShard) {
  // Shard 0's source really sleeps 400ms (RealClock); the coordinator's
  // straggler budget gives the gather 50ms, so the shard is cancelled and
  // the query degrades instead of stalling.
  RealClock real_clock;
  ShardClusterOptions cluster_options;
  cluster_options.wrap_connector =
      [&real_clock](size_t shard, std::unique_ptr<connector::Connector> inner)
      -> std::unique_ptr<connector::Connector> {
    if (shard != 0) return inner;
    connector::SimulationConfig config;
    config.fixed_latency_micros = 400'000;
    return std::make_unique<connector::SimulatedSource>(std::move(inner),
                                                        config, &real_clock);
  };
  DistOptions dist_options;
  dist_options.straggler_wait_micros = 50'000;
  DistFixture fx = MakeDist(2, metadata::FragmentMap::Kind::kHash,
                            std::move(cluster_options), dist_options);
  ASSERT_NE(fx.coordinator, nullptr);

  core::QueryOptions partial;
  partial.availability = core::AvailabilityPolicy::kPartial;
  const int64_t start = real_clock.NowMicros();
  Result<core::QueryResult> got =
      fx.coordinator->ExecuteText(kUnorderedQuery, partial);
  const int64_t elapsed = real_clock.NowMicros() - start;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->report.completeness.complete);
  EXPECT_LT(elapsed, 390'000) << "gather waited out the straggler";
  EXPECT_GE(fx.coordinator->counters().stragglers, 1u);
}

// ---- Repartitioning -------------------------------------------------------

TEST(CoordinatorTest, SourceUpdateTriggersRepartition) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);

  Result<core::QueryResult> before =
      fx.coordinator->ExecuteText(kUnorderedQuery);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->document->children().size(), kItems);

  ASSERT_TRUE(fx.src->PutDocumentText("items", ItemsXml(kItems + 4)).ok());
  fx.catalog->NotifySourceUpdated("src");
  EXPECT_GE(fx.cluster->repartitions(), 1u);

  Result<core::QueryResult> after =
      fx.coordinator->ExecuteText(kUnorderedQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->document->children().size(), kItems + 4);
  Result<core::QueryResult> want =
      fx.coordinator->local_engine()->ExecuteText(kUnorderedQuery);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(SortedChildrenXml(*after->document),
            SortedChildrenXml(*want->document));
}

// A repartition re-splits by the registered map: range bounds cut from the
// first load stay, new keys route by them, and the statistics follow.
TEST(CoordinatorTest, RangeRepartitionKeepsBoundsAndMatchesLocal) {
  DistFixture fx = MakeDist(4, metadata::FragmentMap::Kind::kRange);
  ASSERT_NE(fx.coordinator, nullptr);
  const metadata::FragmentMap* map =
      fx.catalog->fragment_map("src", "items");
  ASSERT_NE(map, nullptr);
  const std::vector<Value> bounds = map->range_upper_bounds;
  ASSERT_EQ(bounds.size(), 3u);

  ASSERT_TRUE(fx.src->PutDocumentText("items", ItemsXml(kItems + 4)).ok());
  fx.catalog->NotifySourceUpdated("src");
  ASSERT_EQ(fx.cluster->repartitions(), 1u);

  map = fx.catalog->fragment_map("src", "items");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->range_upper_bounds, bounds);
  size_t records = 0;
  for (size_t shard = 0; shard < 4; ++shard) {
    ConstNodePtr fragment = fx.cluster->registry().Get("src", "items", shard);
    ASSERT_NE(fragment, nullptr);
    for (const NodePtr& record : fragment->children()) {
      EXPECT_EQ(map->FragmentForKey(PartitionKeyOf(*record, "id")), shard);
      ++records;
    }
  }
  EXPECT_EQ(records, kItems + 4);
  std::shared_ptr<const metadata::CollectionStats> stats =
      fx.catalog->statistics().Get("src", "items");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->row_count, static_cast<double>(kItems + 4));

  for (const char* text : {kOrderedQuery, kAggregateQuery}) {
    Result<core::QueryResult> got = fx.coordinator->ExecuteText(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<core::QueryResult> want =
        fx.coordinator->local_engine()->ExecuteText(text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(ChildrenXml(*got->document), ChildrenXml(*want->document))
        << text;
  }
}

// ---- Load-balancer failure isolation --------------------------------------

TEST(LoadBalancerTest, ExecuteBatchDegradesOverloadedSlotsUnderPartial) {
  // One engine, one admission slot, one queue slot, and a 50ms source: a
  // burst of six submissions deterministically sheds most of the batch with
  // ResourceExhausted. Under kPartial each shed slot degrades to an empty
  // partial result instead of poisoning the batch.
  RealClock real_clock;
  auto xml = std::make_unique<connector::XmlConnector>("s");
  ASSERT_TRUE(xml->PutDocumentText("c", "<c><r><v>1</v></r></c>").ok());
  connector::SimulationConfig config;
  config.fixed_latency_micros = 50'000;
  auto slow = std::make_unique<connector::SimulatedSource>(
      std::move(xml), config, &real_clock);
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(std::move(slow)).ok());

  core::EngineOptions opts;
  opts.max_inflight_queries = 1;
  opts.queue_capacity = 1;
  opts.availability = core::AvailabilityPolicy::kPartial;
  frontend::LoadBalancer balancer;
  balancer.AddEngine(
      std::make_unique<core::IntegrationEngine>(&catalog, opts));

  const std::vector<std::string> queries(
      6, "WHERE <c><r><v>$v</v></r></c> IN \"s:c\" CONSTRUCT <o><v>$v</v></o>");
  std::vector<Result<core::QueryResult>> results =
      balancer.ExecuteBatch(queries);
  size_t complete = 0, degraded = 0;
  for (const Result<core::QueryResult>& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->report.completeness.complete) {
      ++complete;
      EXPECT_EQ(r->document->children().size(), 1u);
    } else {
      ++degraded;
      EXPECT_EQ(r->document->children().size(), 0u);
      EXPECT_EQ(r->document->GetAttribute("complete"), Value::Bool(false));
      EXPECT_EQ(r->document->GetAttribute("missing_sources").ToString(),
                "engine#0");
    }
  }
  EXPECT_GE(complete, 1u);
  EXPECT_GE(degraded, 1u);

  // Fail-fast keeps the hard error visible.
  core::QueryOptions fail_fast;
  fail_fast.availability = core::AvailabilityPolicy::kFailFast;
  std::vector<Result<core::QueryResult>> strict =
      balancer.ExecuteBatch(queries, fail_fast);
  size_t shed = 0;
  for (const Result<core::QueryResult>& r : strict) {
    if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) ++shed;
  }
  EXPECT_GE(shed, 1u);
}

// ---- Monitor surface ------------------------------------------------------

TEST(MonitorTest, StatusDocumentShowsDistributionSection) {
  DistFixture fx = MakeDist(4);
  ASSERT_NE(fx.coordinator, nullptr);
  ASSERT_TRUE(fx.coordinator->ExecuteText(kOrderedQuery).ok());

  admin::SystemMonitor monitor(fx.catalog.get(), nullptr, nullptr,
                               &fx.cluster->balancer(),
                               fx.coordinator.get());
  NodePtr status = monitor.StatusDocument();
  ASSERT_NE(status, nullptr);
  NodePtr distribution = status->FindChild("distribution");
  ASSERT_NE(distribution, nullptr);
  EXPECT_EQ(distribution->GetAttribute("shards"), Value::Int(4));
  NodePtr scatter = distribution->FindChild("scatter_queries");
  ASSERT_NE(scatter, nullptr);
  EXPECT_GE(scatter->ScalarValue().AsInt(), int64_t{1});
  EXPECT_EQ(distribution->FindChildren("shard").size(), 4u);
  NodePtr fragment_map = distribution->FindChild("fragment_map");
  ASSERT_NE(fragment_map, nullptr);
  EXPECT_EQ(fragment_map->GetAttribute("collection"), Value::String("items"));
  // The section renders through the terminal view as well.
  EXPECT_NE(monitor.ToText().find("distribution"), std::string::npos);
}

}  // namespace
}  // namespace dist
}  // namespace nimble
