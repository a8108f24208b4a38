// web_portal: the paper's second application class (§2) — "companies who
// need to build large-scale web sites which serve information from
// multiple internal sources", where site builders work against "an already
// integrated view of their data sources". This example wires the full
// front end: mediated views, materialization, load-balanced engines, a
// result cache, authenticated lenses, and per-device formatting.

#include <cstdio>

#include "connector/csv_connector.h"
#include "connector/relational_connector.h"
#include "frontend/lens.h"
#include "materialize/view_store.h"

namespace {

void Check(const nimble::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}
template <typename T>
void Check(const nimble::Result<T>& result) {
  Check(result.ok() ? nimble::Status::OK() : result.status());
}

}  // namespace

int main() {
  using namespace nimble;

  // ---- Back-end sources -------------------------------------------------------
  relational::Database products_db("catalog_db");
  Check(products_db.Execute(
      "CREATE TABLE products (sku TEXT PRIMARY KEY, title TEXT, "
      "price DOUBLE, category TEXT)"));
  Check(products_db.Execute(
      "INSERT INTO products VALUES "
      "('w-1', 'Widget Deluxe', 25.0, 'tools'), "
      "('g-1', 'Gizmo', 8.0, 'tools'), "
      "('b-1', 'Bauble', 3.5, 'gifts'), "
      "('t-1', 'Trinket', 12.0, 'gifts')"));
  Check(products_db.Execute(
      "CREATE INDEX idx_category ON products (category)"));

  auto inventory = std::make_unique<connector::CsvConnector>("warehouse");
  Check(inventory->PutCsv("stock",
                          "sku,on_hand\n"
                          "w-1,14\n"
                          "g-1,0\n"
                          "b-1,250\n"
                          "t-1,3\n"));

  metadata::Catalog catalog;
  Check(catalog.RegisterSource(
      std::make_unique<connector::RelationalConnector>("catalog_db",
                                                       &products_db)));
  Check(catalog.RegisterSource(std::move(inventory)));

  // ---- Mediated schema the site is built against --------------------------------
  Check(catalog.DefineView("storefront", R"(
    WHERE <products><row><sku>$sku</sku><title>$t</title><price>$p</price>
          <category>$c</category></row></products> IN "catalog_db:products",
          <stock><row><sku>$sku</sku><on_hand>$oh</on_hand></row></stock>
          IN "warehouse:stock",
          $oh > 0
    CONSTRUCT <item sku=$sku><title>$t</title><price>$p</price>
              <category>$c</category><in_stock>$oh</in_stock></item>
  )", "sellable items with live inventory"));

  // ---- Front end -----------------------------------------------------------------
  frontend::LoadBalancer balancer(frontend::BalancePolicy::kRoundRobin);
  for (int i = 0; i < 2; ++i) {
    balancer.AddEngine(std::make_unique<core::IntegrationEngine>(&catalog));
  }
  VirtualClock clock;
  materialize::ResultCache cache(/*max_bytes=*/1 << 20, /*ttl_micros=*/0,
                                 &clock);
  frontend::AuthRegistry auth;
  auth.GrantAccess("price-team-token", "pricing", {"price_export"});
  frontend::LensService lenses(&balancer, &cache, &auth);

  // Public web lens: HTML for the site.
  frontend::Lens category_page;
  category_page.name = "category_page";
  category_page.query_template = R"(
    WHERE <results><item sku=$s><title>$t</title><price>$p</price>
          <category>{category}</category><in_stock>$oh</in_stock></item>
          </results> IN storefront
    CONSTRUCT <product><title>$t</title><price>$p</price>
              <available>$oh</available></product>
    ORDER BY $p
  )";
  category_page.default_parameters = {{"category", "tools"}};
  category_page.format = frontend::TargetFormat::kHtml;
  Check(lenses.RegisterLens(category_page));

  // Wireless-device lens: compact text.
  frontend::Lens mobile = category_page;
  mobile.name = "category_mobile";
  mobile.format = frontend::TargetFormat::kText;
  Check(lenses.RegisterLens(mobile));

  // Authenticated export lens: CSV for the pricing team.
  frontend::Lens price_export = category_page;
  price_export.name = "price_export";
  price_export.format = frontend::TargetFormat::kCsv;
  price_export.require_auth = true;
  Check(lenses.RegisterLens(price_export));

  // ---- Serve pages ------------------------------------------------------------------
  std::printf("== /tools (HTML, web) ==\n");
  Result<frontend::LensResult> page = lenses.Invoke("category_page");
  Check(page);
  std::printf("%s\n\n", page->body.c_str());

  std::printf("== /gifts (text, wireless device) ==\n");
  Result<frontend::LensResult> wireless =
      lenses.Invoke("category_mobile", {{"category", "gifts"}});
  Check(wireless);
  std::printf("%s\n", wireless->body.c_str());

  std::printf("== /tools again (cache) ==\n");
  Result<frontend::LensResult> again = lenses.Invoke("category_page");
  Check(again);
  std::printf("served_from_cache=%s; cache hit rate %.0f%%\n\n",
              again->served_from_cache ? "true" : "false",
              cache.stats().HitRate() * 100);
  if (!again->served_from_cache) {
    std::fprintf(stderr, "error: the repeat page missed the lens cache\n");
    return 1;
  }

  std::printf("== price export without a token ==\n");
  Result<frontend::LensResult> denied = lenses.Invoke("price_export");
  std::printf("%s\n\n", denied.ok() ? "unexpectedly allowed!"
                                    : denied.status().ToString().c_str());

  std::printf("== price export with the pricing team token ==\n");
  Result<frontend::LensResult> csv =
      lenses.Invoke("price_export", {}, "price-team-token");
  Check(csv);
  std::printf("%s\n", csv->body.c_str());

  // ---- Materialize the storefront view for performance (§3.3) -------------------------
  core::IntegrationEngine loader(&catalog);
  materialize::MaterializedViewStore store(&catalog, &loader, &clock);
  Check(store.Materialize("storefront"));
  Result<core::QueryResult> local = store.Query("storefront");
  Check(local);
  std::printf("== materialized storefront serve ==\n");
  std::printf("%zu items, %zu rows shipped (local copy), storage cost %zu "
              "nodes\n",
              local->report.result_count, local->report.rows_shipped,
              store.StorageCost());

  // Inventory changes; the on-stale policy refreshes transparently.
  Check(
      products_db.Execute("UPDATE products SET price = 9.5 WHERE sku = 'g-1'"));
  Result<core::QueryResult> refreshed = store.Query("storefront");
  Check(refreshed);
  std::printf("after a price change: refreshes=%zu, stale_serves=%zu\n",
              store.stats().refreshes, store.stats().stale_serves);
  return 0;
}
