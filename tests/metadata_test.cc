#include <gtest/gtest.h>

#include "connector/xml_connector.h"
#include "core/engine.h"
#include "core/partial_results.h"
#include "metadata/catalog.h"

namespace nimble {
namespace metadata {
namespace {

std::unique_ptr<connector::XmlConnector> MakeSource(const std::string& name) {
  auto source = std::make_unique<connector::XmlConnector>(name);
  EXPECT_TRUE(source->PutDocumentText("d", "<d><r><v>1</v></r></d>").ok());
  return source;
}

constexpr char kViewOverA[] =
    "WHERE <d><r><v>$v</v></r></d> IN \"a:d\" CONSTRUCT <o>$v</o>";

TEST(CatalogTest, RegisterAndLookupSources) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("b")).ok());
  EXPECT_NE(catalog.source("a"), nullptr);
  EXPECT_EQ(catalog.source("zzz"), nullptr);
  EXPECT_EQ(catalog.SourceNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(CatalogTest, DuplicateSourceRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  EXPECT_EQ(catalog.RegisterSource(MakeSource("a")).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ViewValidation) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  // Valid view.
  ASSERT_TRUE(catalog.DefineView("v1", kViewOverA, "first view").ok());
  const MediatedView* view = catalog.view("v1");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->description, "first view");
  EXPECT_EQ(view->source_dependencies, (std::vector<std::string>{"a"}));
  // Duplicate name.
  EXPECT_EQ(catalog.DefineView("v1", kViewOverA).code(),
            StatusCode::kAlreadyExists);
  // View name colliding with a source name.
  EXPECT_EQ(catalog.DefineView("a", kViewOverA).code(),
            StatusCode::kAlreadyExists);
  // Source name colliding with a view name.
  EXPECT_EQ(catalog.RegisterSource(MakeSource("v1")).code(),
            StatusCode::kAlreadyExists);
  // Syntactically broken definition.
  EXPECT_EQ(catalog.DefineView("bad", "WHERE nope").code(),
            StatusCode::kParseError);
  // Unknown source.
  EXPECT_EQ(catalog
                .DefineView("v2",
                            "WHERE <d><r><v>$v</v></r></d> IN \"nope:d\" "
                            "CONSTRUCT <o>$v</o>")
                .code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, BottomUpCompositionAndTransitiveSources) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("b")).ok());
  ASSERT_TRUE(catalog.DefineView("base_a", kViewOverA).ok());
  ASSERT_TRUE(catalog
                  .DefineView("combined",
                              "WHERE <results><o>$v</o></results> IN base_a "
                              "CONSTRUCT <x>$v</x> "
                              "UNION "
                              "WHERE <d><r><v>$v</v></r></d> IN \"b:d\" "
                              "CONSTRUCT <x>$v</x>")
                  .ok());
  const MediatedView* combined = catalog.view("combined");
  ASSERT_NE(combined, nullptr);
  EXPECT_EQ(combined->view_dependencies,
            (std::vector<std::string>{"base_a"}));
  Result<std::vector<std::string>> sources =
      catalog.TransitiveSources("combined");
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(*sources, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog.TransitiveSources("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ForwardViewReferenceRejected) {
  // Referencing a not-yet-defined view fails — which also rules out
  // cycles (definitions are forced bottom-up).
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  EXPECT_EQ(catalog
                .DefineView("early",
                            "WHERE <results><o>$v</o></results> IN later "
                            "CONSTRUCT <x>$v</x>")
                .code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ViewDepthGuardStopsRunawayNesting) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeSource("a")).ok());
  ASSERT_TRUE(catalog.DefineView("v0", kViewOverA).ok());
  for (int i = 1; i <= 20; ++i) {
    std::string query = "WHERE <results><o>$v</o></results> IN v" +
                        std::to_string(i - 1) + " CONSTRUCT <o>$v</o>";
    ASSERT_TRUE(catalog.DefineView("v" + std::to_string(i), query).ok());
  }
  core::EngineOptions options;
  options.max_view_depth = 4;
  core::IntegrationEngine engine(&catalog, options);
  Result<core::QueryResult> result = engine.ExecuteText(
      "WHERE <results><o>$v</o></results> IN v20 CONSTRUCT <x>$v</x>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // A generous depth succeeds.
  options.max_view_depth = 64;
  core::IntegrationEngine deep_engine(&catalog, options);
  EXPECT_TRUE(deep_engine
                  .ExecuteText("WHERE <results><o>$v</o></results> IN v20 "
                               "CONSTRUCT <x>$v</x>")
                  .ok());
}

TEST(CatalogTest, UpdateListenersFireUntilRemoved) {
  Catalog catalog;
  std::vector<std::string> seen_a, seen_b;
  uint64_t token_a = catalog.AddUpdateListener(
      [&](const std::string& source) { seen_a.push_back(source); });
  uint64_t token_b = catalog.AddUpdateListener(
      [&](const std::string& source) { seen_b.push_back(source); });
  EXPECT_NE(token_a, token_b);
  catalog.NotifySourceUpdated("crm");
  EXPECT_EQ(seen_a, (std::vector<std::string>{"crm"}));
  EXPECT_EQ(seen_b, (std::vector<std::string>{"crm"}));
  catalog.RemoveUpdateListener(token_a);
  catalog.NotifySourceUpdated("hr");
  EXPECT_EQ(seen_a.size(), 1u);  // removed listener no longer fires
  EXPECT_EQ(seen_b, (std::vector<std::string>{"crm", "hr"}));
  catalog.RemoveUpdateListener(token_b);
  catalog.NotifySourceUpdated("billing");  // no listeners left: no-op
  EXPECT_EQ(seen_b.size(), 2u);
}

TEST(CompletenessInfoTest, ToStringRendering) {
  core::CompletenessInfo info;
  EXPECT_EQ(info.ToString(), "complete");
  info.complete = false;
  info.unavailable_sources = {"a", "b"};
  info.skipped_branches = {1, 3};
  std::string text = info.ToString();
  EXPECT_NE(text.find("INCOMPLETE"), std::string::npos);
  EXPECT_NE(text.find("a, b"), std::string::npos);
  EXPECT_NE(text.find("1, 3"), std::string::npos);
}

TEST(CompletenessInfoTest, StampOnRoundTripsThroughReadFrom) {
  NodePtr root = Node::Element("results");
  EXPECT_TRUE(core::CompletenessInfo::ReadFrom(*root).complete);  // unstamped
  core::CompletenessInfo complete;
  complete.StampOn(root.get());
  EXPECT_EQ(root->GetAttribute("complete"), Value::Bool(true));
  EXPECT_TRUE(root->GetAttribute("missing_sources").is_null());

  core::CompletenessInfo partial;
  partial.complete = false;
  partial.unavailable_sources = {"crm", "source#shard1"};
  NodePtr stamped = Node::Element("results");
  partial.StampOn(stamped.get());
  EXPECT_EQ(stamped->GetAttribute("missing_sources"),
            Value::String("crm,source#shard1"));
  core::CompletenessInfo read = core::CompletenessInfo::ReadFrom(*stamped);
  EXPECT_FALSE(read.complete);
  EXPECT_EQ(read.unavailable_sources, partial.unavailable_sources);
}

TEST(CompletenessInfoTest, DegradableCodes) {
  EXPECT_TRUE(core::DegradableCode(StatusCode::kTimeout));
  EXPECT_TRUE(core::DegradableCode(StatusCode::kUnavailable));
  EXPECT_TRUE(core::DegradableCode(StatusCode::kResourceExhausted));
  EXPECT_FALSE(core::DegradableCode(StatusCode::kParseError));
  EXPECT_FALSE(core::DegradableCode(StatusCode::kInternal));
  EXPECT_FALSE(core::DegradableCode(StatusCode::kCancelled));
}

}  // namespace
}  // namespace metadata
}  // namespace nimble
