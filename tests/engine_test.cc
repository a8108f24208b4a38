#include <gtest/gtest.h>

#include "connector/csv_connector.h"
#include "connector/hierarchical_connector.h"
#include "connector/relational_connector.h"
#include "connector/simulated_source.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "xml/serializer.h"

namespace nimble {
namespace core {
namespace {

/// Shared fixture: a catalog with a relational CRM, a relational order DB,
/// an XML product feed, and a hierarchical org directory — the paper's
/// motivating "customer data scattered across multiple databases" scenario.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // CRM database.
    crm_ = std::make_unique<relational::Database>("crm");
    Must(crm_->Execute("CREATE TABLE customers (id INT PRIMARY KEY, "
                       "name TEXT, city TEXT, segment TEXT)"));
    Must(crm_->Execute(
        "INSERT INTO customers VALUES (1, 'Ada Lovelace', 'Seattle', 'gold'), "
        "(2, 'Bob Barker', 'Portland', 'bronze'), "
        "(3, 'Cleo Patra', 'Seattle', 'gold'), "
        "(4, 'Dan Druff', 'Boise', 'silver')"));
    Must(crm_->Execute("CREATE INDEX idx_segment ON customers (segment)"));

    // Orders database.
    sales_ = std::make_unique<relational::Database>("sales");
    Must(sales_->Execute("CREATE TABLE orders (oid INT PRIMARY KEY, "
                         "cust INT, total DOUBLE, sku TEXT)"));
    Must(sales_->Execute("INSERT INTO orders VALUES "
                         "(100, 1, 250.0, 'widget'), (101, 1, 80.0, 'gizmo'), "
                         "(102, 3, 999.0, 'widget'), (103, 2, 5.0, 'gadget'), "
                         "(104, 9, 1.0, 'widget')"));

    // XML product catalog.
    auto products = std::make_unique<connector::XmlConnector>("feed");
    Must(products->PutDocumentText(
        "products",
        "<products>"
        "<product sku=\"widget\"><title>Widget Deluxe</title>"
        "<price>25.0</price></product>"
        "<product sku=\"gizmo\"><title>Gizmo</title><price>8.0</price>"
        "</product>"
        "<product sku=\"gadget\"><title>Gadget</title><price>1.0</price>"
        "</product>"
        "</products>"));

    // Hierarchical org directory.
    org_ = std::make_unique<hierarchical::HStore>("org");
    Must(org_->Put("/corp/sales/ada",
                   {{"employee", Value::String("Ada Lovelace")},
                    {"role", Value::String("rep")}}));
    Must(org_->Put("/corp/sales/eve",
                   {{"employee", Value::String("Eve Adams")},
                    {"role", Value::String("manager")}}));

    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("crm", crm_.get())));
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("sales",
                                                         sales_.get())));
    Must(catalog_->RegisterSource(std::move(products)));
    auto org_conn = std::make_unique<connector::HierarchicalConnector>(
        "org", org_.get());
    org_conn->MapCollection("staff", "/corp");
    Must(catalog_->RegisterSource(std::move(org_conn)));

    Rebuild(BaseOptions());
  }

  /// The suite's configuration: the full static-analysis pass runs on every
  /// query, regardless of build type (NDEBUG defaults it off).
  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.verify_plans = true;
    return opts;
  }

  /// Replaces the engine with a new one over the same catalog.
  void Rebuild(const EngineOptions& options) {
    engine_ = std::make_unique<IntegrationEngine>(catalog_.get(), options);
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  QueryResult Run(const std::string& text, const QueryOptions& opts = {}) {
    Result<QueryResult> r = engine_->ExecuteText(text, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) std::abort();
    return std::move(*r);
  }

  std::unique_ptr<relational::Database> crm_;
  std::unique_ptr<relational::Database> sales_;
  std::unique_ptr<hierarchical::HStore> org_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<IntegrationEngine> engine_;
};

constexpr char kGoldQuery[] = R"(
  WHERE <customers><row><id>$i</id><name>$n</name><segment>$s</segment>
        </row></customers> IN "crm:customers",
        $s = 'gold'
  CONSTRUCT <gold><name>$n</name></gold>
)";

TEST_F(EngineTest, SingleSourceSelection) {
  QueryResult qr = Run(kGoldQuery);
  EXPECT_EQ(qr.report.result_count, 2u);
  ASSERT_EQ(qr.document->children().size(), 2u);
  EXPECT_EQ(qr.document->children()[0]->name(), "gold");
  EXPECT_EQ(qr.document->children()[0]->FindChild("name")->ScalarValue(),
            Value::String("Ada Lovelace"));
}

TEST_F(EngineTest, PushdownUsedForRelationalSource) {
  QueryResult qr = Run(kGoldQuery);
  EXPECT_EQ(qr.report.fragments_pushed_down, 1u);
  EXPECT_EQ(qr.report.fragments_fetched, 0u);
  EXPECT_TRUE(qr.report.pushdown_hit_index);  // idx_segment
  // Only the two gold rows crossed the wire.
  EXPECT_EQ(qr.report.rows_shipped, 2u);
}

TEST_F(EngineTest, PushdownDisabledShipsWholeTable) {
  EngineOptions opts = BaseOptions();
  opts.enable_pushdown = false;
  Rebuild(opts);
  QueryResult qr = Run(kGoldQuery);
  EXPECT_EQ(qr.report.fragments_pushed_down, 0u);
  EXPECT_EQ(qr.report.fragments_fetched, 1u);
  EXPECT_EQ(qr.report.rows_shipped, 4u);  // whole customers table
  EXPECT_EQ(qr.report.result_count, 2u);  // same answer
}

TEST_F(EngineTest, CrossSourceJoin) {
  QueryResult qr = Run(R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers",
          <orders><row><oid>$o</oid><cust>$i</cust><total>$t</total></row>
          </orders> IN "sales:orders",
          $t > 100
    CONSTRUCT <big_spender><name>$n</name><total>$t</total></big_spender>
    ORDER BY $t DESC
  )");
  ASSERT_EQ(qr.report.result_count, 2u);
  EXPECT_EQ(qr.document->children()[0]->FindChild("name")->ScalarValue(),
            Value::String("Cleo Patra"));
  EXPECT_EQ(qr.document->children()[0]->FindChild("total")->ScalarValue(),
            Value::Double(999.0));
  EXPECT_EQ(qr.document->children()[1]->FindChild("name")->ScalarValue(),
            Value::String("Ada Lovelace"));
  EXPECT_EQ(qr.report.sources_contacted.size(), 2u);
}

TEST_F(EngineTest, ThreeSourceJoinRelationalAndXml) {
  QueryResult qr = Run(R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers",
          <orders><row><cust>$i</cust><sku>$k</sku></row></orders>
          IN "sales:orders",
          <products><product sku=$k><title>$p</title></product></products>
          IN "feed:products"
    CONSTRUCT <line><name>$n</name><product>$p</product></line>
  )");
  // orders joinable to customers: 100,101,102,103 → each has a product.
  EXPECT_EQ(qr.report.result_count, 4u);
}

TEST_F(EngineTest, AttributePatternAndLiteralConstraint) {
  QueryResult qr = Run(R"(
    WHERE <products><product sku="widget"><title>$t</title>
          <price>$p</price></product></products> IN "feed:products"
    CONSTRUCT <hit><title>$t</title><price>$p</price></hit>
  )");
  ASSERT_EQ(qr.report.result_count, 1u);
  EXPECT_EQ(qr.document->children()[0]->FindChild("title")->ScalarValue(),
            Value::String("Widget Deluxe"));
  EXPECT_EQ(qr.document->children()[0]->FindChild("price")->ScalarValue(),
            Value::Double(25.0));
}

TEST_F(EngineTest, DescendantPatternOverHierarchicalSource) {
  QueryResult qr = Run(R"(
    WHERE <//entry><employee>$e</employee><role>manager</role></entry>
          IN "org:staff"
    CONSTRUCT <manager>$e</manager>
  )");
  ASSERT_EQ(qr.report.result_count, 1u);
  EXPECT_EQ(qr.document->children()[0]->ScalarValue(),
            Value::String("Eve Adams"));
}

TEST_F(EngineTest, ElementAsRepublishesSubtree) {
  QueryResult qr = Run(R"(
    WHERE <products><product ELEMENT_AS $e sku="gizmo"></product></products>
          IN "feed:products"
    CONSTRUCT <wrapped>$e</wrapped>
  )");
  ASSERT_EQ(qr.report.result_count, 1u);
  NodePtr wrapped = qr.document->children()[0];
  NodePtr product = wrapped->FindChild("product");
  ASSERT_NE(product, nullptr);
  EXPECT_EQ(product->FindChild("title")->ScalarValue(),
            Value::String("Gizmo"));
}

TEST_F(EngineTest, OrderByAscendingAndLimit) {
  QueryResult qr = Run(R"(
    WHERE <orders><row><oid>$o</oid><total>$t</total></row></orders>
          IN "sales:orders"
    CONSTRUCT <o total=$t/>
    ORDER BY $t
    LIMIT 2
  )");
  ASSERT_EQ(qr.report.result_count, 2u);
  EXPECT_EQ(qr.document->children()[0]->GetAttribute("total"),
            Value::Double(1.0));
  EXPECT_EQ(qr.document->children()[1]->GetAttribute("total"),
            Value::Double(5.0));
}

TEST_F(EngineTest, LimitPushedIntoSingleFragmentSql) {
  QueryResult qr = Run(R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers"
    CONSTRUCT <c id=$i/>
    ORDER BY $i DESC
    LIMIT 2
  )");
  ASSERT_EQ(qr.report.result_count, 2u);
  // Only the two surviving rows crossed the wire (the source applied
  // ORDER BY id DESC LIMIT 2).
  EXPECT_EQ(qr.report.rows_shipped, 2u);
  EXPECT_EQ(qr.document->children()[0]->GetAttribute("id"), Value::Int(4));
  EXPECT_EQ(qr.document->children()[1]->GetAttribute("id"), Value::Int(3));
}

TEST_F(EngineTest, LimitNotPushedWhenConditionStaysLocal) {
  // LIKE over an attribute-bound variable cannot ride into SQL when the
  // pattern is not table-shaped; here we force a residual by using a
  // condition the translator cannot push (variable only in feed source).
  QueryResult qr = Run(R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers",
          <orders><row><cust>$i</cust></row></orders> IN "sales:orders"
    CONSTRUCT <c id=$i/>
    LIMIT 2
  )");
  // Multi-fragment query: LIMIT applies in the mediator, answer size 2.
  EXPECT_EQ(qr.report.result_count, 2u);
  EXPECT_GT(qr.report.rows_shipped, 2u);
}

TEST_F(EngineTest, UnionCombinesBranches) {
  QueryResult qr = Run(R"(
    WHERE <customers><row><name>$n</name><segment>gold</segment></row>
          </customers> IN "crm:customers"
    CONSTRUCT <person>$n</person>
    UNION
    WHERE <//entry><employee>$e</employee></entry> IN "org:staff"
    CONSTRUCT <person>$e</person>
  )");
  EXPECT_EQ(qr.report.result_count, 4u);  // 2 gold + 2 staff
  EXPECT_TRUE(qr.report.completeness.complete);
  EXPECT_EQ(qr.document->GetAttribute("complete"), Value::Bool(true));
}

TEST_F(EngineTest, MediatedViewComposition) {
  // Define a view over two sources, then query the view — the paper's
  // hierarchical schema composition.
  Must(catalog_->DefineView("customer_orders", R"(
    WHERE <customers><row><id>$i</id><name>$n</name></row></customers>
          IN "crm:customers",
          <orders><row><cust>$i</cust><total>$t</total></row></orders>
          IN "sales:orders"
    CONSTRUCT <co><name>$n</name><total>$t</total></co>
  )"));
  QueryResult qr = Run(R"(
    WHERE <results><co><name>$n</name><total>$t</total></co></results>
          IN customer_orders,
          $t >= 250
    CONSTRUCT <vip>$n</vip>
  )");
  EXPECT_EQ(qr.report.result_count, 2u);
}

TEST_F(EngineTest, ViewOverViewComposition) {
  Must(catalog_->DefineView("all_people", R"(
    WHERE <customers><row><name>$n</name></row></customers>
          IN "crm:customers"
    CONSTRUCT <person>$n</person>
    UNION
    WHERE <//entry><employee>$e</employee></entry> IN "org:staff"
    CONSTRUCT <person>$e</person>
  )"));
  Must(catalog_->DefineView("a_people", R"(
    WHERE <results><person>$p</person></results> IN all_people,
          $p LIKE 'A%'
    CONSTRUCT <a_person>$p</a_person>
  )"));
  QueryResult qr = Run(R"(
    WHERE <results><a_person>$p</a_person></results> IN a_people
    CONSTRUCT <out>$p</out>
  )");
  // Ada Lovelace appears in both the CRM and the org directory — bag
  // semantics keeps both copies (the object-identity problem the §3.2
  // cleaning layer exists to solve; see cleaning_test.cc).
  EXPECT_EQ(qr.report.result_count, 2u);
  EXPECT_EQ(qr.document->children()[0]->ScalarValue(),
            Value::String("Ada Lovelace"));
}

TEST_F(EngineTest, BindJoinShipsOnlyMatchingRows) {
  // Bind join: the non-SQL feed fragment is evaluated first; its distinct
  // SKU set is then pushed into the SQL orders fragment as an IN filter,
  // so only orders for catalogued SKUs cross the wire.
  EngineOptions options = BaseOptions();
  options.enable_bind_join = true;
  Rebuild(options);
  QueryResult with_bind = Run(R"(
    WHERE <products><product sku=$k><title>$p</title></product></products>
          IN "feed:products",
          <orders><row><cust>$c</cust><sku>$k</sku></row></orders>
          IN "sales:orders"
    CONSTRUCT <line sku=$k cust=$c/>
  )");
  EXPECT_GT(with_bind.report.fragments_bind_joined, 0u);

  options.enable_bind_join = false;
  Rebuild(options);
  QueryResult without_bind = Run(R"(
    WHERE <products><product sku=$k><title>$p</title></product></products>
          IN "feed:products",
          <orders><row><cust>$c</cust><sku>$k</sku></row></orders>
          IN "sales:orders"
    CONSTRUCT <line sku=$k cust=$c/>
  )");
  EXPECT_EQ(without_bind.report.fragments_bind_joined, 0u);
  // Bind join is a pure optimization: identical answers, fewer (or equal)
  // rows shipped, and the plan labels the semijoin-filtered scan.
  EXPECT_EQ(with_bind.report.result_count,
            without_bind.report.result_count);
  EXPECT_LE(with_bind.report.rows_shipped, without_bind.report.rows_shipped);
  EXPECT_NE(with_bind.report.plan.find("sql+bind:"), std::string::npos);
}

TEST_F(EngineTest, BindJoinRespectsLimit) {
  EngineOptions options = BaseOptions();
  options.enable_bind_join = true;
  options.bind_join_limit = 1;  // the 3-product key set exceeds this
  Rebuild(options);
  QueryResult qr = Run(R"(
    WHERE <products><product sku=$k><title>$p</title></product></products>
          IN "feed:products",
          <orders><row><cust>$c</cust><sku>$k</sku></row></orders>
          IN "sales:orders"
    CONSTRUCT <line sku=$k cust=$c/>
  )");
  EXPECT_EQ(qr.report.fragments_bind_joined, 0u);
}

TEST_F(EngineTest, GroupedAggregation) {
  QueryResult qr = Run(R"(
    WHERE <orders><row><cust>$c</cust><total>$t</total></row></orders>
          IN "sales:orders"
    CONSTRUCT <spend cust=$c><orders>count($t)</orders>
              <total>sum($t)</total><biggest>max($t)</biggest></spend>
    GROUP BY $c
    ORDER BY $c
  )");
  // Customers 1, 2, 3, 9 have orders.
  ASSERT_EQ(qr.report.result_count, 4u);
  NodePtr first = qr.document->children()[0];
  EXPECT_EQ(first->GetAttribute("cust"), Value::Int(1));
  EXPECT_EQ(first->FindChild("orders")->ScalarValue(), Value::Int(2));
  EXPECT_EQ(first->FindChild("total")->ScalarValue(), Value::Double(330.0));
  EXPECT_EQ(first->FindChild("biggest")->ScalarValue(), Value::Double(250.0));
}

TEST_F(EngineTest, GlobalAggregation) {
  QueryResult qr = Run(R"(
    WHERE <orders><row><total>$t</total></row></orders> IN "sales:orders"
    CONSTRUCT <summary><n>count($t)</n><sum>sum($t)</sum>
              <mean>avg($t)</mean></summary>
  )");
  ASSERT_EQ(qr.report.result_count, 1u);
  NodePtr summary = qr.document->children()[0];
  EXPECT_EQ(summary->FindChild("n")->ScalarValue(), Value::Int(5));
  EXPECT_EQ(summary->FindChild("sum")->ScalarValue(), Value::Double(1335.0));
  EXPECT_EQ(summary->FindChild("mean")->ScalarValue(),
            Value::Double(1335.0 / 5));
}

// Rule 1: sum() over all-int inputs is an exact Int, as in SQL.
TEST_F(EngineTest, SumOfLargeIntsIsExact) {
  auto big = std::make_unique<connector::XmlConnector>("big");
  Must(big->PutDocumentText(
      "ns", "<ns><n>9007199254740993</n><n>2</n><n>2.5</n></ns>"));
  Must(catalog_->RegisterSource(std::move(big)));
  Rebuild(BaseOptions());
  QueryResult qr = Run(R"(
    WHERE <ns><n>$v</n></ns> IN "big:ns", $v > 3
    CONSTRUCT <total>sum($v)</total>
  )");
  ASSERT_EQ(qr.report.result_count, 1u);
  const Value total = qr.document->children()[0]->ScalarValue();
  ASSERT_TRUE(total.is_int()) << ValueTypeName(total.type());
  EXPECT_EQ(total.AsInt(), 9007199254740993);  // 2^53 + 1; no double holds it
  EXPECT_NE(ToXml(*qr.document).find("9007199254740993"), std::string::npos);
  // With the two smaller values the sum is 2^53 + 3: still exact and Int.
  qr = Run(R"(
    WHERE <ns><n>$v</n></ns> IN "big:ns", $v != 2.5
    CONSTRUCT <total>sum($v)</total>
  )");
  EXPECT_EQ(qr.document->children()[0]->ScalarValue(),
            Value::Int(9007199254740995));
  EXPECT_TRUE(qr.document->children()[0]->ScalarValue().is_int());
  // A double input makes the sum a Double.
  qr = Run(R"(
    WHERE <ns><n>$v</n></ns> IN "big:ns", $v < 3
    CONSTRUCT <total>sum($v)</total>
  )");
  EXPECT_TRUE(qr.document->children()[0]->ScalarValue().is_double());
  EXPECT_EQ(qr.document->children()[0]->ScalarValue(), Value::Double(4.5));
}

// The XML text "nan" is a Double NaN, which has one place in Value's order:
// equal to NaN, above every other number. ORDER BY over it is sorted, a
// filter `$v = 5` excludes it, and a cross condition pairs it with no
// number.
TEST_F(EngineTest, NanSortsAboveEveryNumberAndEqualsNone) {
  auto nums = std::make_unique<connector::XmlConnector>("nums");
  std::string vs = "<vs>";
  for (const char* v : {"5", "3", "-1", "9", "nan", "2", "7", "8"}) {
    vs += std::string("<r><v>") + v + "</v></r>";
  }
  Must(nums->PutDocumentText("vs", vs + "</vs>"));
  Must(nums->PutDocumentText("ws", "<ws><r><w>5</w></r><r><w>7</w></r></ws>"));
  Must(catalog_->RegisterSource(std::move(nums)));
  Rebuild(BaseOptions());
  auto values = [](const QueryResult& qr) {
    std::string out;
    for (const NodePtr& child : qr.document->children()) {
      out += child->ScalarValue().ToString() + " ";
    }
    return out;
  };
  EXPECT_EQ(values(Run(R"(
    WHERE <vs><r><v>$v</v></r></vs> IN "nums:vs"
    CONSTRUCT <o>$v</o> ORDER BY $v
  )")),
            "-1 2 3 5 7 8 9 nan ");
  EXPECT_EQ(values(Run(R"(
    WHERE <vs><r><v>$v</v></r></vs> IN "nums:vs", $v = 5
    CONSTRUCT <o>$v</o>
  )")),
            "5 ");
  EXPECT_EQ(values(Run(R"(
    WHERE <vs><r><v>$v</v></r></vs> IN "nums:vs",
          <ws><r><w>$w</w></r></ws> IN "nums:ws", $v = $w
    CONSTRUCT <o>$v</o> ORDER BY $v
  )")),
            "5 7 ");
}

TEST_F(EngineTest, AggregationOverJoin) {
  QueryResult qr = Run(R"(
    WHERE <customers><row><id>$i</id><segment>$s</segment></row></customers>
          IN "crm:customers",
          <orders><row><cust>$i</cust><total>$t</total></row></orders>
          IN "sales:orders"
    CONSTRUCT <seg name=$s><revenue>sum($t)</revenue></seg>
    GROUP BY $s
    ORDER BY $s
  )");
  // gold: Ada(250+80) + Cleo(999) = 1329; bronze: Bob(5).
  ASSERT_EQ(qr.report.result_count, 2u);
  EXPECT_EQ(qr.document->children()[0]->GetAttribute("name"),
            Value::String("bronze"));
  EXPECT_EQ(qr.document->children()[0]->FindChild("revenue")->ScalarValue(),
            Value::Double(5.0));
  EXPECT_EQ(qr.document->children()[1]->FindChild("revenue")->ScalarValue(),
            Value::Double(1329.0));
}

TEST_F(EngineTest, ResultDocumentSerializes) {
  QueryResult qr = Run(kGoldQuery);
  std::string xml = ToXml(*qr.document);
  EXPECT_NE(xml.find("<gold>"), std::string::npos);
  EXPECT_NE(xml.find("Ada Lovelace"), std::string::npos);
}

TEST_F(EngineTest, PlanRendered) {
  QueryResult qr = Run(kGoldQuery);
  EXPECT_NE(qr.report.plan.find("Scan"), std::string::npos);
}

TEST_F(EngineTest, ErrorUnknownSource) {
  Result<QueryResult> r = engine_->ExecuteText(R"(
    WHERE <t><r><a>$a</a></r></t> IN "nope:t"
    CONSTRUCT <x>$a</x>
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ErrorUnboundVariable) {
  Result<QueryResult> r = engine_->ExecuteText(R"(
    WHERE <t><r><a>$a</a></r></t> IN "crm:customers"
    CONSTRUCT <x>$zzz</x>
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// Shapes semantic analysis rejects fail with the same user error whether or
// not the plan verifier runs: a grouping key named like an aggregate output,
// a duplicate grouping key, and a variable bound both by ELEMENT_AS and as a
// scalar (each answered with verify_plans off before analysis caught it).
TEST_F(EngineTest, RejectedShapesFailAlikeWithAndWithoutVerifier) {
  const std::pair<const char*, StatusCode> kCases[] = {
      {"WHERE <orders><row><cust>$count_t</cust><total>$t</total></row>"
       "</orders> IN \"sales:orders\" "
       "CONSTRUCT <r c=$count_t><n>count($t)</n></r> GROUP BY $count_t",
       StatusCode::kParseError},
      {"WHERE <orders><row><cust>$c</cust><total>$t</total></row></orders>"
       " IN \"sales:orders\" CONSTRUCT <r c=$c><n>count($t)</n></r>"
       " GROUP BY $c, $c",
       StatusCode::kParseError},
      {"WHERE <products><product ELEMENT_AS $e><title>$t</title>"
       "<price>$e</price></product></products> IN \"feed:products\" "
       "CONSTRUCT <r>$t</r>",
       StatusCode::kTypeError},
  };
  for (bool verify : {true, false}) {
    EngineOptions options = BaseOptions();
    options.verify_plans = verify;
    Rebuild(options);
    for (const auto& [text, code] : kCases) {
      Result<QueryResult> r = engine_->ExecuteText(text);
      ASSERT_FALSE(r.ok()) << "verify_plans=" << verify << ": " << text;
      EXPECT_EQ(r.status().code(), code)
          << "verify_plans=" << verify << ": " << text << "\n"
          << r.status().ToString();
    }
  }
}

// ---- Plan cache / result cache (§2.1 caching) ------------------------------

TEST_F(EngineTest, PlanCacheReusesCompiledQueries) {
  PlanCache* plans = engine_->plan_cache();
  ASSERT_NE(plans, nullptr);
  Run(kGoldQuery);
  EXPECT_EQ(plans->stats().misses, 1u);
  Run(kGoldQuery);
  EXPECT_EQ(plans->stats().hits, 1u);
  EXPECT_EQ(plans->size(), 1u);
}

TEST_F(EngineTest, PlanCacheCanonicalizesWhitespace) {
  Run(kGoldQuery);
  // Same query with collapsed whitespace compiles to the same entry...
  std::string squashed = CanonicalizeQueryText(kGoldQuery);
  Run(squashed);
  EXPECT_EQ(engine_->plan_cache()->stats().hits, 1u);
  EXPECT_EQ(engine_->plan_cache()->size(), 1u);
  // ...but whitespace inside string literals is load-bearing.
  EXPECT_NE(CanonicalizeQueryText("WHERE $s = 'a  b'"),
            CanonicalizeQueryText("WHERE $s = 'a b'"));
}

// ---- Availability / partial results (§3.4) ---------------------------------

class AvailabilityTest : public EngineTest {
 protected:
  void SetUp() override {
    EngineTest::SetUp();
    // Re-register the sales source behind a simulated flaky wrapper.
    // (Catalog has no unregister; build a second catalog.)
    catalog2_ = std::make_unique<metadata::Catalog>();
    Must(catalog2_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("crm", crm_.get())));
    auto sales_inner = std::make_unique<connector::RelationalConnector>(
        "sales", sales_.get());
    connector::SimulationConfig config;
    config.fixed_latency_micros = 1000;
    config.per_row_latency_micros = 10;
    auto sim = std::make_unique<connector::SimulatedSource>(
        std::move(sales_inner), config, &clock_);
    sim_ = sim.get();
    Must(catalog2_->RegisterSource(std::move(sim)));
    engine2_ = std::make_unique<IntegrationEngine>(catalog2_.get());
  }

  QueryResult Run2(const std::string& text, const QueryOptions& opts = {}) {
    Result<QueryResult> r = engine2_->ExecuteText(text, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) std::abort();
    return std::move(*r);
  }

  VirtualClock clock_;
  connector::SimulatedSource* sim_ = nullptr;
  std::unique_ptr<metadata::Catalog> catalog2_;
  std::unique_ptr<IntegrationEngine> engine2_;
};

constexpr char kUnionQuery[] = R"(
  WHERE <customers><row><name>$n</name></row></customers> IN "crm:customers"
  CONSTRUCT <p>$n</p>
  UNION
  WHERE <orders><row><oid>$o</oid></row></orders> IN "sales:orders"
  CONSTRUCT <o>$o</o>
)";

TEST_F(AvailabilityTest, AllUpAllResults) {
  sim_->SetOnline(true);
  QueryResult qr = Run2(kUnionQuery);
  EXPECT_EQ(qr.report.result_count, 9u);  // 4 customers + 5 orders
  EXPECT_TRUE(qr.report.completeness.complete);
}

TEST_F(AvailabilityTest, FailFastPropagatesUnavailable) {
  sim_->SetOnline(false);
  Result<QueryResult> r = engine2_->ExecuteText(kUnionQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(AvailabilityTest, PartialPolicyReturnsIncompleteResults) {
  sim_->SetOnline(false);
  QueryOptions opts;
  opts.availability = AvailabilityPolicy::kPartial;
  QueryResult qr = Run2(kUnionQuery, opts);
  EXPECT_EQ(qr.report.result_count, 4u);  // customers only
  EXPECT_FALSE(qr.report.completeness.complete);
  ASSERT_EQ(qr.report.completeness.unavailable_sources.size(), 1u);
  EXPECT_EQ(qr.report.completeness.unavailable_sources[0], "sales");
  EXPECT_EQ(qr.report.completeness.skipped_branches,
            (std::vector<size_t>{1}));
  // The result document is annotated for downstream consumers.
  EXPECT_EQ(qr.document->GetAttribute("complete"), Value::Bool(false));
  EXPECT_EQ(qr.document->GetAttribute("missing_sources"),
            Value::String("sales"));
}

TEST_F(AvailabilityTest, RequiredSourceFailsEvenUnderPartial) {
  sim_->SetOnline(false);
  QueryOptions opts;
  opts.availability = AvailabilityPolicy::kPartial;
  opts.required_sources = {"sales"};
  Result<QueryResult> r = engine2_->ExecuteText(kUnionQuery, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(AvailabilityTest, SimulatedLatencyCharged) {
  sim_->SetOnline(true);
  QueryResult qr = Run2(R"(
    WHERE <orders><row><oid>$o</oid></row></orders> IN "sales:orders"
    CONSTRUCT <o>$o</o>
  )");
  // 1000us fixed + 5 rows * 10us.
  EXPECT_EQ(qr.report.source_latency_micros, 1050);
  EXPECT_GE(clock_.NowMicros(), 1050);
}

}  // namespace
}  // namespace core
}  // namespace nimble
