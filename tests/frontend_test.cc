#include <gtest/gtest.h>

#include "connector/relational_connector.h"
#include "frontend/auth.h"
#include "frontend/formatter.h"
#include "frontend/lens.h"
#include "frontend/load_balancer.h"
#include "xml/parser.h"

namespace nimble {
namespace frontend {
namespace {

// ---- Formatter -------------------------------------------------------------------

NodePtr ResultDoc() {
  Result<NodePtr> doc = ParseXml(
      "<results>"
      "<person><name>Ada</name><city>Seattle</city></person>"
      "<person><name>Bob</name><city>Portland</city></person>"
      "</results>");
  EXPECT_TRUE(doc.ok());
  return *doc;
}

TEST(FormatterTest, Xml) {
  std::string out = FormatResult(*ResultDoc(), TargetFormat::kXml);
  EXPECT_NE(out.find("<person>"), std::string::npos);
  EXPECT_NE(out.find("\n"), std::string::npos);  // pretty
}

TEST(FormatterTest, HtmlTable) {
  std::string out = FormatResult(*ResultDoc(), TargetFormat::kHtml);
  EXPECT_NE(out.find("<table>"), std::string::npos);
  EXPECT_NE(out.find("<th>name</th>"), std::string::npos);
  EXPECT_NE(out.find("<td>Ada</td>"), std::string::npos);
}

TEST(FormatterTest, HtmlEscapesCells) {
  NodePtr doc = Node::Element("results");
  NodePtr rec = Node::Element("r");
  rec->AddScalarChild("v", Value::String("<b>&"));
  doc->AddChild(rec);
  std::string out = FormatResult(*doc, TargetFormat::kHtml);
  EXPECT_NE(out.find("&lt;b&gt;&amp;"), std::string::npos);
}

TEST(FormatterTest, TextAligned) {
  std::string out = FormatResult(*ResultDoc(), TargetFormat::kText);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("Ada"), std::string::npos);
  // Column alignment: "name" padded to at least "Ada"/"Bob" width.
  EXPECT_EQ(out.find("name  city"), 0u);
}

TEST(FormatterTest, CsvQuoting) {
  NodePtr doc = Node::Element("results");
  NodePtr rec = Node::Element("r");
  rec->AddScalarChild("v", Value::String("a,b"));
  rec->AddScalarChild("w", Value::String("say \"hi\""));
  doc->AddChild(rec);
  std::string out = FormatResult(*doc, TargetFormat::kCsv);
  EXPECT_EQ(out, "v,w\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(FormatterTest, ScalarRecordsUseTheirTagAsColumn) {
  Result<NodePtr> doc = ParseXml("<results><n>1</n><n>2</n></results>");
  ASSERT_TRUE(doc.ok());
  std::string out = FormatResult(**doc, TargetFormat::kCsv);
  EXPECT_EQ(out, "n\n1\n2\n");
}

TEST(FormatterTest, MixedColumnsUnion) {
  Result<NodePtr> doc = ParseXml(
      "<results><r><a>1</a></r><r><b>2</b></r></results>");
  ASSERT_TRUE(doc.ok());
  std::string out = FormatResult(**doc, TargetFormat::kCsv);
  EXPECT_EQ(out, "a,b\n1,\n,2\n");
}

// ---- Auth -----------------------------------------------------------------------

TEST(AuthTest, GrantAuthorizeRevoke) {
  AuthRegistry auth;
  auth.GrantAccess("tok1", "ada", {"sales_report"});
  auth.GrantAccess("admin", "root", {"*"});

  Result<std::string> who = auth.Authorize("tok1", "sales_report");
  ASSERT_TRUE(who.ok());
  EXPECT_EQ(*who, "ada");
  EXPECT_EQ(auth.Authorize("tok1", "other").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(auth.Authorize("admin", "anything").ok());
  EXPECT_EQ(auth.Authorize("bogus", "sales_report").status().code(),
            StatusCode::kPermissionDenied);
  auth.Revoke("tok1");
  EXPECT_FALSE(auth.Authorize("tok1", "sales_report").ok());
}

// ---- LoadBalancer + LensService -----------------------------------------------------

class FrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("crm");
    ASSERT_TRUE(db_->Execute("CREATE TABLE c (id INT PRIMARY KEY, name TEXT, "
                             "segment TEXT)")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES (1, 'Ada', 'gold'), "
                             "(2, 'Bob', 'bronze'), (3, 'Cleo', 'gold')")
                    .ok());
    catalog_ = std::make_unique<metadata::Catalog>();
    ASSERT_TRUE(catalog_
                    ->RegisterSource(
                        std::make_unique<connector::RelationalConnector>(
                            "crm", db_.get()))
                    .ok());
    balancer_ = std::make_unique<LoadBalancer>(BalancePolicy::kRoundRobin);
    for (int i = 0; i < 3; ++i) {
      balancer_->AddEngine(
          std::make_unique<core::IntegrationEngine>(catalog_.get()));
    }
    cache_ = std::make_unique<materialize::ResultCache>(1 << 20, 0, &clock_);
    auth_ = std::make_unique<AuthRegistry>();
    service_ = std::make_unique<LensService>(balancer_.get(), cache_.get(),
                                             auth_.get());
  }

  Lens SegmentLens() {
    Lens lens;
    lens.name = "segment_report";
    lens.query_template = R"(
      WHERE <c><row><name>$n</name><segment>$s</segment></row></c> IN "crm:c",
            $s = '{segment}'
      CONSTRUCT <person><name>$n</name></person>
    )";
    lens.default_parameters = {{"segment", "gold"}};
    lens.format = TargetFormat::kCsv;
    return lens;
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<LoadBalancer> balancer_;
  VirtualClock clock_;
  std::unique_ptr<materialize::ResultCache> cache_;
  std::unique_ptr<AuthRegistry> auth_;
  std::unique_ptr<LensService> service_;
};

TEST_F(FrontendTest, RoundRobinSpreadsQueries) {
  const char* query =
      "WHERE <c><row><name>$n</name></row></c> IN \"crm:c\" "
      "CONSTRUCT <p>$n</p>";
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(balancer_->Execute(query).ok());
  }
  EXPECT_EQ(balancer_->QueriesPerEngine(),
            (std::vector<uint64_t>{2, 2, 2}));
}

TEST_F(FrontendTest, LensDefaultAndOverrideParameters) {
  ASSERT_TRUE(service_->RegisterLens(SegmentLens()).ok());
  Result<LensResult> gold = service_->Invoke("segment_report");
  ASSERT_TRUE(gold.ok()) << gold.status().ToString();
  EXPECT_EQ(gold->body, "name\nAda\nCleo\n");

  Result<LensResult> bronze =
      service_->Invoke("segment_report", {{"segment", "bronze"}});
  ASSERT_TRUE(bronze.ok());
  EXPECT_EQ(bronze->body, "name\nBob\n");
}

uint64_t TotalQueriesServed(const LoadBalancer& balancer) {
  uint64_t total = 0;
  for (uint64_t served : balancer.QueriesPerEngine()) total += served;
  return total;
}

TEST_F(FrontendTest, LensCachesResults) {
  ASSERT_TRUE(service_->RegisterLens(SegmentLens()).ok());
  Result<LensResult> first = service_->Invoke("segment_report");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->served_from_cache);
  const uint64_t served = TotalQueriesServed(*balancer_);
  Result<LensResult> second = service_->Invoke("segment_report");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->served_from_cache);
  EXPECT_EQ(second->body, first->body);
  EXPECT_TRUE(second->raw.report.completeness.complete);
  EXPECT_EQ(second->raw.report.result_count, 2u);
  // A hit is the shared frozen snapshot, not a clone, and costs no
  // execution on any engine.
  EXPECT_EQ(second->raw.document.get(), first->raw.document.get());
  EXPECT_TRUE(second->raw.document->frozen());
  EXPECT_EQ(TotalQueriesServed(*balancer_), served);
  // Copy-on-write: MutableDocument() thaws a private copy on demand.
  NodePtr mutable_doc = second->raw.MutableDocument();
  EXPECT_NE(mutable_doc.get(), first->raw.document.get());
  EXPECT_FALSE(mutable_doc->frozen());
  // Different parameters -> different cache key.
  Result<LensResult> other =
      service_->Invoke("segment_report", {{"segment", "bronze"}});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->served_from_cache);
}

// Source updates reach the lens cache through a catalog listener that
// drops every answer tagged with the updated source.
TEST_F(FrontendTest, SourceUpdateInvalidatesLensCache) {
  const uint64_t token = catalog_->AddUpdateListener(
      [this](const std::string& source) { cache_->InvalidateTag(source); });
  ASSERT_TRUE(service_->RegisterLens(SegmentLens()).ok());
  ASSERT_TRUE(service_->Invoke("segment_report").ok());
  EXPECT_EQ(cache_->size(), 1u);
  // An unrelated source leaves the answer; the contacted source drops it.
  catalog_->NotifySourceUpdated("other");
  EXPECT_EQ(cache_->size(), 1u);
  Result<LensResult> cached = service_->Invoke("segment_report");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->served_from_cache);
  catalog_->NotifySourceUpdated("crm");
  EXPECT_EQ(cache_->size(), 0u);
  EXPECT_EQ(cache_->stats().invalidations, 1u);
  Result<LensResult> fresh = service_->Invoke("segment_report");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->served_from_cache);
  catalog_->RemoveUpdateListener(token);
}

TEST_F(FrontendTest, LensAuthEnforced) {
  Lens lens = SegmentLens();
  lens.require_auth = true;
  ASSERT_TRUE(service_->RegisterLens(lens).ok());
  EXPECT_EQ(service_->Invoke("segment_report").status().code(),
            StatusCode::kPermissionDenied);
  auth_->GrantAccess("tok", "ada", {"segment_report"});
  EXPECT_TRUE(service_->Invoke("segment_report", {}, "tok").ok());
  EXPECT_FALSE(service_->Invoke("segment_report", {}, "wrong").ok());
}

TEST_F(FrontendTest, LensMissingParameterErrors) {
  Lens lens = SegmentLens();
  lens.default_parameters.clear();
  ASSERT_TRUE(service_->RegisterLens(lens).ok());
  EXPECT_EQ(service_->Invoke("segment_report").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FrontendTest, TemplateExpansionEscapesQuotes) {
  Result<std::string> expanded = LensService::ExpandTemplate(
      "$s = '{v}'", {{"v", "O'Brien"}});
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, "$s = 'O''Brien'");
  EXPECT_FALSE(LensService::ExpandTemplate("{unclosed", {}).ok());
}

TEST_F(FrontendTest, DuplicateLensRejected) {
  ASSERT_TRUE(service_->RegisterLens(SegmentLens()).ok());
  EXPECT_EQ(service_->RegisterLens(SegmentLens()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(FrontendTest, UnknownLens) {
  EXPECT_EQ(service_->Invoke("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(FrontendTest, LeastLoadedPrefersIdleEngines) {
  balancer_->set_policy(BalancePolicy::kLeastLoaded);
  const char* query =
      "WHERE <c><row><name>$n</name></row></c> IN \"crm:c\" "
      "CONSTRUCT <p>$n</p>";
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(balancer_->Execute(query).ok());
  }
  // Local sources report zero latency, so ties resolve to engine 0 —
  // but every query must be served.
  uint64_t total = 0;
  for (uint64_t n : balancer_->QueriesPerEngine()) total += n;
  EXPECT_EQ(total, 6u);
}

}  // namespace
}  // namespace frontend
}  // namespace nimble
