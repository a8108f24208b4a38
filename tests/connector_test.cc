#include <gtest/gtest.h>

#include "connector/csv_connector.h"
#include "connector/hierarchical_connector.h"
#include "connector/relational_connector.h"
#include "connector/simulated_source.h"
#include "connector/xml_connector.h"
#include "dist/shard_connector.h"

namespace nimble {
namespace connector {
namespace {

TEST(RelationalConnectorTest, CollectionsAndFetch) {
  relational::Database db("src");
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  RelationalConnector conn("src", &db);

  EXPECT_EQ(conn.Collections(), (std::vector<std::string>{"t"}));
  Result<NodePtr> tree = conn.FetchCollection("t");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->name(), "t");
  ASSERT_EQ((*tree)->children().size(), 2u);
  NodePtr row = (*tree)->children()[0];
  EXPECT_EQ(row->name(), "row");
  EXPECT_EQ(row->FindChild("a")->ScalarValue(), Value::Int(1));
  EXPECT_EQ(row->FindChild("b")->ScalarValue(), Value::String("x"));
}

TEST(RelationalConnectorTest, ExecuteSqlAndStats) {
  relational::Database db("src");
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  RelationalConnector conn("src", &db);

  Result<relational::ResultSet> rs = conn.ExecuteSql("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value::String("y"));
  EXPECT_EQ(conn.stats().calls, 1u);
  EXPECT_EQ(conn.stats().rows_shipped, 1u);
}

TEST(RelationalConnectorTest, CapabilitiesReportIndexes) {
  relational::Database db("src");
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)").ok());
  RelationalConnector conn("src", &db);
  SourceCapabilities caps = conn.capabilities();
  EXPECT_TRUE(caps.supports_sql);
  EXPECT_TRUE(caps.supports_predicates);
  EXPECT_TRUE(caps.HasIndexOn("t", "a"));  // pk index
  EXPECT_FALSE(caps.HasIndexOn("t", "b"));
}

TEST(RelationalConnectorTest, VersionTracksMutations) {
  relational::Database db("src");
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  RelationalConnector conn("src", &db);
  uint64_t v0 = conn.DataVersion();
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_GT(conn.DataVersion(), v0);
}

TEST(XmlConnectorTest, PutFetchSharesFrozenSnapshot) {
  XmlConnector conn("docs");
  ASSERT_TRUE(conn.PutDocumentText("books", "<books><b>1</b></books>").ok());
  Result<NodePtr> first = conn.FetchCollection("books");
  Result<NodePtr> second = conn.FetchCollection("books");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Both fetches hand out the one stored tree, frozen.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_TRUE((*first)->frozen());
  NodePtr before_replace = (*first)->Clone();

  // A replacing Put serves new fetches; the snapshot already handed out
  // keeps its content.
  ASSERT_TRUE(
      conn.PutDocumentText("books", "<books><b>1</b><b>2</b></books>").ok());
  EXPECT_TRUE((*first)->DeepEquals(*before_replace));
  Result<NodePtr> third = conn.FetchCollection("books");
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->get(), first->get());
  EXPECT_EQ((*third)->children().size(), 2u);
}

TEST(XmlConnectorTest, RejectsBadXml) {
  XmlConnector conn("docs");
  EXPECT_EQ(conn.PutDocumentText("bad", "<a><b></a>").code(),
            StatusCode::kParseError);
}

TEST(XmlConnectorTest, MissingDocument) {
  XmlConnector conn("docs");
  EXPECT_EQ(conn.FetchCollection("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(XmlConnectorTest, ReplacingPutBumpsVersion) {
  XmlConnector conn("docs");
  ASSERT_TRUE(conn.PutDocumentText("d", "<d/>").ok());
  uint64_t v0 = conn.DataVersion();
  // An edit is fetch, copy, edit, replace.
  Result<NodePtr> stored = conn.FetchCollection("d");
  ASSERT_TRUE(stored.ok());
  NodePtr edited = (*stored)->Clone();
  edited->AddChild(Node::Element("extra"));
  conn.PutDocument("d", edited);
  EXPECT_GT(conn.DataVersion(), v0);
  EXPECT_TRUE(edited->frozen());
  EXPECT_TRUE((*stored)->children().empty());
}

TEST(HierarchicalConnectorTest, MappedCollections) {
  hierarchical::HStore store("org");
  ASSERT_TRUE(store.Put("/corp/a", {{"n", Value::Int(1)}}).ok());
  HierarchicalConnector conn("org", &store);
  conn.MapCollection("staff", "/corp");
  EXPECT_EQ(conn.Collections(), (std::vector<std::string>{"staff"}));
  Result<NodePtr> tree = conn.FetchCollection("staff");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->FindChild("entry")->GetAttribute("path"),
            Value::String("/corp"));
  EXPECT_EQ(conn.FetchCollection("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvConnectorTest, ParsesTypedRows) {
  CsvConnector conn("files");
  ASSERT_TRUE(conn.PutCsv("people",
                          "name,age,city\n"
                          "Ada,36,Seattle\n"
                          "Bob,41,\"Portland, OR\"\n")
                  .ok());
  Result<NodePtr> tree = conn.FetchCollection("people");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ((*tree)->children().size(), 2u);
  NodePtr ada = (*tree)->children()[0];
  EXPECT_EQ(ada->FindChild("age")->ScalarValue(), Value::Int(36));
  NodePtr bob = (*tree)->children()[1];
  EXPECT_EQ(bob->FindChild("city")->ScalarValue(),
            Value::String("Portland, OR"));
}

TEST(CsvConnectorTest, SplitCsvLineQuoting) {
  EXPECT_EQ(SplitCsvLine("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(SplitCsvLine("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(SplitCsvLine(""), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCsvLine("a,,c"), (std::vector<std::string>{"a", "", "c"}));
}

TEST(CsvConnectorTest, ErrorOnRaggedRows) {
  CsvConnector conn("files");
  EXPECT_EQ(conn.PutCsv("bad", "a,b\n1\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(conn.PutCsv("empty", "").code(),
            StatusCode::kInvalidArgument);
}

// ---- Fetch contract -----------------------------------------------------------

// Every source hands out frozen trees, whether it stores one (Xml, Csv, a
// shard fragment) or builds a fresh one per fetch (Relational,
// Hierarchical), and decorators pass them through unchanged.
TEST(ConnectorContractTest, EveryFetchReturnsAFrozenTree) {
  XmlConnector xml("docs");
  ASSERT_TRUE(xml.PutDocumentText("books", "<books><b>1</b></books>").ok());
  CsvConnector csv("files");
  ASSERT_TRUE(csv.PutCsv("people", "name,age\nAda,36\n").ok());
  relational::Database db("src");
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  RelationalConnector relational("src", &db);
  hierarchical::HStore store("org");
  ASSERT_TRUE(store.Put("/corp/a", {{"n", Value::Int(1)}}).ok());
  HierarchicalConnector hierarchical("org", &store);
  hierarchical.MapCollection("staff", "/corp");
  VirtualClock clock;
  auto simulated_inner = std::make_unique<XmlConnector>("remote");
  ASSERT_TRUE(simulated_inner->PutDocumentText("d", "<d><r>1</r></d>").ok());
  SimulatedSource simulated(std::move(simulated_inner), SimulationConfig{},
                            &clock);
  dist::FragmentRegistry registry;
  NodePtr fragment = Node::Element("books");
  fragment->AddScalarChild("b", Value::Int(2));
  registry.Install("docs", "books", {fragment->Freeze()});
  XmlConnector unsharded("docs");
  ASSERT_TRUE(unsharded.PutDocumentText("books", "<books/>").ok());
  ASSERT_TRUE(unsharded.PutDocumentText("authors", "<authors/>").ok());
  dist::ShardSourceConnector shard(&registry, &unsharded, 0);

  struct Case {
    const char* label;
    Connector* source;
    const char* collection;
  };
  const Case cases[] = {
      {"xml", &xml, "books"},
      {"csv", &csv, "people"},
      {"relational", &relational, "t"},
      {"hierarchical", &hierarchical, "staff"},
      {"simulated", &simulated, "d"},
      {"shard fragment", &shard, "books"},
      {"shard forwarded", &shard, "authors"},
  };
  for (const Case& c : cases) {
    Result<NodePtr> tree = c.source->FetchCollection(c.collection);
    ASSERT_TRUE(tree.ok()) << c.label << ": " << tree.status().ToString();
    EXPECT_TRUE((*tree)->frozen()) << c.label;
  }
}

// ---- SimulatedSource ---------------------------------------------------------

class SimulatedSourceTest : public ::testing::Test {
 protected:
  std::unique_ptr<SimulatedSource> Make(SimulationConfig config) {
    auto inner = std::make_unique<XmlConnector>("remote");
    EXPECT_TRUE(
        inner->PutDocumentText("d", "<d><r>1</r><r>2</r><r>3</r></d>").ok());
    return std::make_unique<SimulatedSource>(std::move(inner), config,
                                             &clock_);
  }
  VirtualClock clock_;
};

TEST_F(SimulatedSourceTest, ChargesLatencyToClock) {
  SimulationConfig config;
  config.fixed_latency_micros = 500;
  config.per_row_latency_micros = 100;
  auto src = Make(config);
  ASSERT_TRUE(src->FetchCollection("d").ok());
  EXPECT_EQ(clock_.NowMicros(), 500 + 3 * 100);
  EXPECT_EQ(src->stats().latency_micros, 800);
  EXPECT_EQ(src->stats().rows_shipped, 3u);
}

TEST_F(SimulatedSourceTest, ForcedOffline) {
  auto src = Make({});
  src->SetOnline(false);
  EXPECT_EQ(src->Ping().code(), StatusCode::kUnavailable);
  EXPECT_EQ(src->FetchCollection("d").status().code(),
            StatusCode::kUnavailable);
  src->SetOnline(true);
  EXPECT_TRUE(src->Ping().ok());
  EXPECT_TRUE(src->FetchCollection("d").ok());
}

TEST_F(SimulatedSourceTest, ProbabilisticAvailabilityRoughlyCalibrated) {
  SimulationConfig config;
  config.availability = 0.7;
  config.seed = 11;
  auto src = Make(config);
  int up = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (src->Ping().ok()) ++up;
  }
  EXPECT_NEAR(static_cast<double>(up) / kTrials, 0.7, 0.05);
}

TEST_F(SimulatedSourceTest, DelegatesCapabilitiesAndName) {
  auto src = Make({});
  EXPECT_EQ(src->name(), "remote");
  EXPECT_FALSE(src->capabilities().supports_sql);
  EXPECT_EQ(src->Collections(), (std::vector<std::string>{"d"}));
}

TEST_F(SimulatedSourceTest, SqlUnsupportedPassesThrough) {
  auto src = Make({});
  EXPECT_EQ(src->ExecuteSql("SELECT 1").status().code(),
            StatusCode::kUnsupported);
}

}  // namespace
}  // namespace connector
}  // namespace nimble
