#include <gtest/gtest.h>

#include "connector/csv_connector.h"
#include "connector/relational_connector.h"
#include "connector/simulated_source.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "frontend/lens.h"
#include "materialize/view_store.h"
#include "xml/serializer.h"

namespace nimble {
namespace {

/// Full-stack fixture: four source types behind one catalog, mirroring the
/// web_portal example, used for cross-layer invariants.
class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("shop");
    Must(db_->Execute("CREATE TABLE products (sku TEXT PRIMARY KEY, "
                      "title TEXT, price DOUBLE, category TEXT)"));
    Must(db_->Execute("INSERT INTO products VALUES "
                      "('w-1', 'Widget', 25.0, 'tools'), "
                      "('g-1', 'Gizmo', 8.0, 'tools'), "
                      "('b-1', 'Bauble', 3.5, 'gifts'), "
                      "('t-1', 'Trinket', 12.0, 'gifts'), "
                      "('s-1', 'Sprocket', 99.0, 'tools')"));
    Must(db_->Execute("CREATE INDEX idx_cat ON products (category)"));
    // Only OptionEquivalence reads this table: a NULL-bearing column.
    Must(db_->Execute("CREATE TABLE notes (id INT, memo TEXT)"));
    Must(db_->Execute("INSERT INTO notes VALUES (1, 'a'), (2, NULL)"));
    // Only OptionEquivalence and GroupByKeepsDoublesThatPrintAlike read
    // this table: two epoch-millisecond doubles that print alike at 12
    // significant digits, plus enough other values that the cost model
    // keeps a bind join on $t.
    Must(db_->Execute("CREATE TABLE events (id INT, t DOUBLE)"));
    Must(db_->Execute("INSERT INTO events VALUES (1, 1700000000.123), "
                      "(2, 1700000000.124), (3, 1.5), (4, 2.5), (5, 3.5)"));

    auto stock = std::make_unique<connector::CsvConnector>("wh");
    Must(stock->PutCsv("stock",
                       "sku,on_hand\nw-1,14\ng-1,0\nb-1,250\nt-1,3\ns-1,7\n"));

    auto reviews = std::make_unique<connector::XmlConnector>("rev");
    Must(reviews->PutDocumentText(
        "reviews",
        "<reviews>"
        "<review sku=\"w-1\"><stars>5</stars></review>"
        "<review sku=\"w-1\"><stars>4</stars></review>"
        "<review sku=\"s-1\"><stars>2</stars></review>"
        "</reviews>"));
    Must(reviews->PutDocumentText(
        "ticks",
        "<ticks><tick><t>1700000000.123</t></tick>"
        "<tick><t>1700000000.124</t></tick></ticks>"));

    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("shop", db_.get())));
    Must(catalog_->RegisterSource(std::move(stock)));
    Must(catalog_->RegisterSource(std::move(reviews)));
    engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get());
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<core::IntegrationEngine> engine_;
};

/// Canonical rendering of a result document for order-insensitive
/// comparison (children sorted by serialized form).
std::string Canonical(const Node& doc) {
  std::vector<std::string> parts;
  for (const NodePtr& child : doc.children()) {
    parts.push_back(ToXml(*child));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& part : parts) out += part + "\n";
  return out;
}

// The optimizer invariant the whole compiler rests on: every combination
// of pushdown/bind-join/parallel options yields the same answer for every
// query shape.
class OptionEquivalence : public IntegrationTest,
                          public ::testing::WithParamInterface<const char*> {};

TEST_P(OptionEquivalence, AllOptionCombosAgree) {
  std::string reference;
  bool first = true;
  for (bool pushdown : {true, false}) {
    for (bool bind : {true, false}) {
      for (bool parallel : {true, false}) {
        core::EngineOptions options;
        options.enable_pushdown = pushdown;
        options.enable_bind_join = bind;
        options.parallel_fetch = parallel;
        engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get(),
                                                            options);
        Result<core::QueryResult> result = engine_->ExecuteText(GetParam());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::string canonical = Canonical(*result->document);
        if (first) {
          reference = canonical;
          first = false;
        } else {
          EXPECT_EQ(canonical, reference)
              << "pushdown=" << pushdown << " bind=" << bind
              << " parallel=" << parallel;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, OptionEquivalence,
    ::testing::Values(
        // simple selection
        R"(WHERE <products><row><sku>$s</sku><price>$p</price></row>
           </products> IN "shop:products", $p > 10
           CONSTRUCT <x sku=$s price=$p/>)",
        // two-source join (SQL x CSV)
        R"(WHERE <products><row><sku>$s</sku><title>$t</title></row>
           </products> IN "shop:products",
           <stock><row><sku>$s</sku><on_hand>$oh</on_hand></row></stock>
           IN "wh:stock", $oh > 0
           CONSTRUCT <item><t>$t</t><oh>$oh</oh></item>)",
        // three-source join with attribute pattern
        R"(WHERE <products><row><sku>$s</sku><category>tools</category></row>
           </products> IN "shop:products",
           <stock><row><sku>$s</sku><on_hand>$oh</on_hand></row></stock>
           IN "wh:stock",
           <reviews><review sku=$s><stars>$st</stars></review></reviews>
           IN "rev:reviews"
           CONSTRUCT <rated sku=$s stars=$st oh=$oh/>)",
        // aggregation over a join
        R"(WHERE <products><row><sku>$s</sku><category>$c</category>
           <price>$p</price></row></products> IN "shop:products"
           CONSTRUCT <cat name=$c><n>count($p)</n><avg>avg($p)</avg></cat>
           GROUP BY $c ORDER BY $c)",
        // union
        R"(WHERE <products><row><sku>$s</sku></row></products>
           IN "shop:products" CONSTRUCT <k>$s</k>
           UNION
           WHERE <stock><row><sku>$s</sku></row></stock> IN "wh:stock"
           CONSTRUCT <k>$s</k>)",
        // LIKE over a null operand is false on both sides of pushdown
        R"(WHERE <notes><row><id>$i</id><memo>$m</memo></row></notes>
           IN "shop:notes", $m LIKE '%'
           CONSTRUCT <r>$i</r>)",
        // a double literal needing 13 significant digits, pushed or not
        R"(WHERE <events><row><id>$i</id><t>$t</t></row></events>
           IN "shop:events", $t = 1700000000.123
           CONSTRUCT <e>$i</e>)",
        // XML x SQL join on such doubles, with and without bind-join keys
        R"(WHERE <ticks><tick><t>$t</t></tick></ticks> IN "rev:ticks",
           <events><row><id>$i</id><t>$t</t></row></events>
           IN "shop:events"
           CONSTRUCT <hit id=$i/>)"));

TEST_F(IntegrationTest, LensOverMaterializedViewStaysFresh) {
  Must(catalog_->DefineView("tool_stock", R"(
    WHERE <products><row><sku>$s</sku><title>$t</title>
          <category>tools</category></row></products> IN "shop:products",
          <stock><row><sku>$s</sku><on_hand>$oh</on_hand></row></stock>
          IN "wh:stock", $oh > 0
    CONSTRUCT <tool sku=$s><title>$t</title><qty>$oh</qty></tool>
  )"));
  VirtualClock clock;
  materialize::MaterializedViewStore store(catalog_.get(), engine_.get(),
                                           &clock);
  Must(store.Materialize("tool_stock"));
  Result<core::QueryResult> before = store.Query("tool_stock");
  Must(before);
  EXPECT_EQ(before->report.result_count, 2u);  // widget, sprocket

  // Source change invalidates the copy; next serve refreshes.
  Must(db_->Execute("INSERT INTO products VALUES "
                    "('h-1', 'Hammer', 15.0, 'tools')"));
  // Hammer has no stock row; result count unchanged, but refresh happened.
  Result<core::QueryResult> after = store.Query("tool_stock");
  Must(after);
  EXPECT_EQ(store.stats().refreshes, 2u);
}

TEST_F(IntegrationTest, RetriesMaskTransientOutages) {
  // A source that is down exactly once recovers transparently when
  // fetch_retries >= 1.
  VirtualClock clock;
  auto inner = std::make_unique<connector::XmlConnector>("flaky");
  Must(inner->PutDocumentText("d", "<d><r><v>1</v></r></d>"));
  connector::SimulationConfig config;
  config.availability = 0.5;
  config.seed = 3;
  auto sim = std::make_unique<connector::SimulatedSource>(std::move(inner),
                                                          config, &clock);
  Must(catalog_->RegisterSource(std::move(sim)));

  const char* query =
      "WHERE <d><r><v>$v</v></r></d> IN \"flaky:d\" CONSTRUCT <o>$v</o>";
  size_t failures_without = 0;  // the fixture engine: no retries
  for (int i = 0; i < 100; ++i) {
    if (!engine_->ExecuteText(query).ok()) ++failures_without;
  }
  core::EngineOptions with_retry;
  with_retry.fetch_retries = 3;
  engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get(),
                                                      with_retry);
  size_t failures_with = 0;
  for (int i = 0; i < 100; ++i) {
    if (!engine_->ExecuteText(query).ok()) ++failures_with;
  }
  // p(fail) drops from ~0.5 to ~0.5^4.
  EXPECT_GT(failures_without, 30u);
  EXPECT_LT(failures_with, 20u);
}

TEST_F(IntegrationTest, DocumentOrderPreservedThroughTheStack) {
  // XML is intrinsically ordered (§4): a single-fragment query without
  // ORDER BY reproduces source document order.
  Result<core::QueryResult> result = engine_->ExecuteText(R"(
    WHERE <reviews><review sku=$s><stars>$st</stars></review></reviews>
          IN "rev:reviews"
    CONSTRUCT <r sku=$s stars=$st/>
  )");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->report.result_count, 3u);
  const auto& children = result->document->children();
  EXPECT_EQ(children[0]->GetAttribute("stars"), Value::Int(5));
  EXPECT_EQ(children[1]->GetAttribute("stars"), Value::Int(4));
  EXPECT_EQ(children[2]->GetAttribute("stars"), Value::Int(2));
}

TEST_F(IntegrationTest, GroupByKeepsDoublesThatPrintAlike) {
  // 1700000000.123 and 1700000000.124 both print as 1700000000.12, but
  // GROUP BY keys on the values: two groups of one.
  Result<core::QueryResult> result = engine_->ExecuteText(R"(
    WHERE <events><row><id>$i</id><t>$t</t></row></events> IN "shop:events",
          $t > 1000
    CONSTRUCT <g><n>count($i)</n></g>
    GROUP BY $t
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->report.result_count, 2u);
  for (const NodePtr& group : result->document->children()) {
    EXPECT_EQ(group->FindChild("n")->ScalarValue(), Value::Int(1));
  }
}

}  // namespace
}  // namespace nimble
