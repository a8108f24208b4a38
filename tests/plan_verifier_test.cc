#include "core/plan_verifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "core/fragmenter.h"
#include "core/plan_cache.h"
#include "relational/database.h"
#include "xmlql/parser.h"

namespace nimble {
namespace core {
namespace {

/// Catalog with a SQL-capable source, an XML feed carrying TWO documents
/// (so Collections() stays non-empty after one is dropped), an empty XML
/// source (no enumeration), and a mediated view.
class PlanVerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<relational::Database>("db");
    Must(db_->Execute(
        "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)"));
    Must(db_->Execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')"));

    auto feed = std::make_unique<connector::XmlConnector>("feed");
    feed_ = feed.get();
    Must(feed->PutDocumentText(
        "products",
        "<products><product><title>Widget</title><sku>w1</sku></product>"
        "<product><title>Gizmo</title><sku>g1</sku></product></products>"));
    Must(feed->PutDocumentText("extra", "<extra><x>1</x></extra>"));

    auto ghost = std::make_unique<connector::XmlConnector>("ghost");

    catalog_ = std::make_unique<metadata::Catalog>();
    Must(catalog_->RegisterSource(
        std::make_unique<connector::RelationalConnector>("db", db_.get())));
    Must(catalog_->RegisterSource(std::move(feed)));
    Must(catalog_->RegisterSource(std::move(ghost)));
    Must(catalog_->DefineView(
        "things",
        "WHERE <t><row><a>$a</a><b>$b</b></row></t> IN \"db:t\" "
        "CONSTRUCT <thing><b>$b</b></thing>"));
  }

  void Must(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }
  template <typename T>
  void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  xmlql::Query Parse(const std::string& text) {
    Result<xmlql::Query> q = xmlql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) std::abort();
    return std::move(*q);
  }

  void ExpectViolation(const Status& s, const std::string& needle) {
    ASSERT_FALSE(s.ok()) << "expected a fragmentation violation";
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
    EXPECT_NE(s.message().find("fragmentation verifier"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find(needle), std::string::npos) << s.ToString();
  }

  std::unique_ptr<relational::Database> db_;
  connector::XmlConnector* feed_ = nullptr;
  std::unique_ptr<metadata::Catalog> catalog_;
};

constexpr char kTwoSourceQuery[] =
    "WHERE <t><row><a>$a</a><b>$b</b></row></t> IN \"db:t\",\n"
    "      <products><product><title>$p</title><sku>$b</sku></product>"
    "</products> IN \"feed:products\",\n"
    "      $a > 0, $p != 'nope'\n"
    "CONSTRUCT <out><b>$b</b></out>";

// ---- CatalogResolver -----------------------------------------------------

TEST_F(PlanVerifierTest, ResolverAcceptsRegisteredSourceAndView) {
  CatalogResolver resolver(*catalog_);
  xmlql::SourceRef source_ref;
  source_ref.source = "db";
  source_ref.collection = "t";
  EXPECT_TRUE(resolver.Resolve(source_ref).ok());

  xmlql::SourceRef view_ref;
  view_ref.collection = "things";
  ASSERT_TRUE(view_ref.is_view());
  EXPECT_TRUE(resolver.Resolve(view_ref).ok());
}

TEST_F(PlanVerifierTest, ResolverRejectsUnknownSource) {
  CatalogResolver resolver(*catalog_);
  xmlql::SourceRef ref;
  ref.source = "nowhere";
  ref.collection = "t";
  Status s = resolver.Resolve(ref);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("nowhere"), std::string::npos);
}

TEST_F(PlanVerifierTest, ResolverRejectsUnknownCollection) {
  CatalogResolver resolver(*catalog_);
  xmlql::SourceRef ref;
  ref.source = "feed";
  ref.collection = "dropped";
  Status s = resolver.Resolve(ref);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("dropped"), std::string::npos);
}

TEST_F(PlanVerifierTest, ResolverRejectsUnknownView) {
  CatalogResolver resolver(*catalog_);
  xmlql::SourceRef ref;
  ref.collection = "no_such_view";
  Status s = resolver.Resolve(ref);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(PlanVerifierTest, ResolverPermissiveWhenSourceCannotEnumerate) {
  // "ghost" holds no documents, so Collections() is empty: availability is
  // a runtime matter and static analysis must not reject the reference.
  CatalogResolver resolver(*catalog_);
  xmlql::SourceRef ref;
  ref.source = "ghost";
  ref.collection = "whatever";
  EXPECT_TRUE(resolver.Resolve(ref).ok());
}

// ---- VerifyFragmentation (F1–F3 tampering) -------------------------------

TEST_F(PlanVerifierTest, IntactFragmentationPasses) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  Fragmentation frag = FragmentQuery(query);
  EXPECT_TRUE(VerifyFragmentation(query, frag, *catalog_).ok());
}

// A negative literal pushed to a SQL source reparses as the same literal:
// the SQL parser reads `-5` as Int(-5), not as minus applied to 5, and a
// double keeps its type (-0.0 prints "-0.0", not "-0").
TEST_F(PlanVerifierTest, NegativeLiteralOnSqlSourceRoundTrips) {
  for (const char* literal : {"-5", "-9223372036854775808", "-2.5", "-0.0",
                              "-100000000000000000000000.0"}) {
    xmlql::Query query =
        Parse(std::string("WHERE <t><row><a>$a</a><b>$b</b></row></t> "
                          "IN \"db:t\", $a > ") +
              literal + " CONSTRUCT <out>$b</out>");
    Fragmentation frag = FragmentQuery(query);
    Status s = VerifyFragmentation(query, frag, *catalog_);
    EXPECT_TRUE(s.ok()) << literal << ": " << s.ToString();
  }
  EngineOptions opts;
  opts.verify_plans = true;
  IntegrationEngine engine(catalog_.get(), opts);
  Result<QueryResult> r = engine.ExecuteText(
      "WHERE <t><row><a>$a</a><b>$b</b></row></t> IN \"db:t\", $a > -5 "
      "CONSTRUCT <out>$b</out>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->report.result_count, 2u);
}

TEST_F(PlanVerifierTest, F1_DroppedPatternDetected) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  Fragmentation frag = FragmentQuery(query);
  ASSERT_EQ(frag.fragments.size(), 2u);
  frag.fragments.pop_back();
  ExpectViolation(VerifyFragmentation(query, frag, *catalog_),
                  "covered 0 times");
}

TEST_F(PlanVerifierTest, F1_ForeignPatternDetected) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  xmlql::Query other = Parse(
      "WHERE <alien><z>$z</z></alien> IN \"db:t\" "
      "CONSTRUCT <out>$z</out>");
  Fragmentation frag = FragmentQuery(query);
  frag.fragments[0].pattern = &other.patterns[0];
  ExpectViolation(VerifyFragmentation(query, frag, *catalog_),
                  "not a pattern of this query");
}

TEST_F(PlanVerifierTest, F2_DroppedConditionDetected) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  Fragmentation frag = FragmentQuery(query);
  bool dropped = false;
  for (Fragment& fragment : frag.fragments) {
    if (!fragment.local_conditions.empty()) {
      fragment.local_conditions.clear();
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped) << "expected at least one local condition";
  ExpectViolation(VerifyFragmentation(query, frag, *catalog_),
                  "assigned 0 times");
}

TEST_F(PlanVerifierTest, F2_DuplicatedConditionDetected) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  Fragmentation frag = FragmentQuery(query);
  ASSERT_FALSE(query.conditions.empty());
  // Re-list an already-claimed condition as a cross condition.
  frag.cross_conditions.push_back(&query.conditions[0]);
  ExpectViolation(VerifyFragmentation(query, frag, *catalog_),
                  "assigned 2 times");
}

TEST_F(PlanVerifierTest, F3_TamperedSchemaDetected) {
  xmlql::Query query = Parse(kTwoSourceQuery);
  Fragmentation frag = FragmentQuery(query);
  frag.fragments[0].schema = algebra::TupleSchema({"bogus"});
  ExpectViolation(VerifyFragmentation(query, frag, *catalog_),
                  "does not match its pattern");
}

// ---- VerifyCompiledProgram -----------------------------------------------

TEST_F(PlanVerifierTest, CompiledProgramBranchCountMismatch) {
  Result<std::shared_ptr<const CompiledProgram>> compiled =
      CompileProgram(kTwoSourceQuery);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  CompiledProgram truncated;
  truncated.program.branches.push_back(Parse(kTwoSourceQuery));
  // No fragmentations at all: 0 for 1 branch.
  ExpectViolation(VerifyCompiledProgram(truncated, *catalog_),
                  "fragmentations for");
}

TEST_F(PlanVerifierTest, CompiledProgramFullPassSucceeds) {
  Result<std::shared_ptr<const CompiledProgram>> compiled =
      CompileProgram(kTwoSourceQuery);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(VerifyCompiledProgram(**compiled, *catalog_).ok());
}

TEST_F(PlanVerifierTest, CompiledProgramCatchesDanglingReference) {
  Result<std::shared_ptr<const CompiledProgram>> compiled = CompileProgram(
      "WHERE <products><product><title>$t</title></product></products> "
      "IN \"feed:vanished\" CONSTRUCT <out>$t</out>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Status s = VerifyCompiledProgram(**compiled, *catalog_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("vanished"), std::string::npos);
}

// ---- Engine integration: stale cached plans are evicted ------------------

constexpr char kFeedQuery[] =
    "WHERE <products><product><title>$t</title></product></products> "
    "IN \"feed:products\" CONSTRUCT <out><title>$t</title></out>";

TEST_F(PlanVerifierTest, CacheHitRevalidationPassesForFreshPlan) {
  EngineOptions opts;
  opts.verify_plans = true;
  IntegrationEngine engine(catalog_.get(), opts);
  ASSERT_NE(engine.plan_cache(), nullptr);

  Result<QueryResult> first = engine.ExecuteText(kFeedQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<QueryResult> second = engine.ExecuteText(kFeedQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  PlanCache::Stats stats = engine.plan_cache()->stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST_F(PlanVerifierTest, StaleCachedPlanIsEvictedAndRecompiled) {
  EngineOptions opts;
  opts.verify_plans = true;
  IntegrationEngine engine(catalog_.get(), opts);
  ASSERT_NE(engine.plan_cache(), nullptr);

  // Warm the cache while the document exists.
  Result<QueryResult> warm = engine.ExecuteText(kFeedQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Source-side schema change: the document vanishes but "extra" keeps the
  // enumeration non-empty, so the resolver positively knows it is gone.
  ASSERT_TRUE(feed_->RemoveDocument("products"));
  Result<QueryResult> stale = engine.ExecuteText(kFeedQuery);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound)
      << stale.status().ToString();
  EXPECT_EQ(engine.plan_cache()->stats().invalidations, 1u);

  // The document comes back; the recompiled plan verifies and runs.
  Must(feed_->PutDocumentText(
      "products",
      "<products><product><title>Back</title></product></products>"));
  Result<QueryResult> again = engine.ExecuteText(kFeedQuery);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->report.result_count, 1u);
}

}  // namespace
}  // namespace core
}  // namespace nimble
