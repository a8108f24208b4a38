// admin_console: the data-administrator workflow (§2.1 "offline data
// manipulation and replication … using our data administrator sub-system";
// §4 "configuration and management tools that make it possible for
// administrators to set up, monitor, and understand, the system").
//
// Walks through: profiling a dirty source (the §3.2 "datamining phase"),
// replicating it into a local relational store with an offline cleaning
// flow, persisting the concordance database, and printing the system
// status board.

#include <cstdio>

#include "admin/monitor.h"
#include "admin/replication.h"
#include "cleaning/profiler.h"
#include "cleaning/similarity.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
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

  // ---- A messy legacy feed arrives -------------------------------------------
  auto legacy = std::make_unique<connector::XmlConnector>("legacy");
  Check(legacy->PutDocumentText(
      "accounts",
      "<accounts>"
      "<a><holder>Lovelace, Ada</holder><ref>ACCT-0101</ref>"
      "<region>west</region></a>"
      "<a><holder>Ada  Lovelace</holder><ref>ACCT-0101</ref>"
      "<region>West</region></a>"
      "<a><holder>Bob Barker</holder><ref>ACCT-0202</ref>"
      "<region>west</region></a>"
      "<a><holder>Grace Hopper</holder><ref>dept=sales;tier=2</ref>"
      "<region>east</region></a>"
      "</accounts>"));
  connector::XmlConnector* legacy_raw = legacy.get();

  metadata::Catalog catalog;
  Check(catalog.RegisterSource(std::move(legacy)));
  core::IntegrationEngine engine(&catalog);

  // ---- Step 1: datamining phase — profile before cleaning (§3.2) -------------
  Result<NodePtr> tree = legacy_raw->FetchCollection("accounts");
  Check(tree);
  std::vector<cleaning::KeyedRecord> records;
  size_t index = 0;
  for (const NodePtr& child : (*tree)->children()) {
    records.push_back(cleaning::KeyedRecord{
        "acct#" + std::to_string(index++), cleaning::RecordFromXml(*child)});
  }
  cleaning::BatchProfile profile = cleaning::ProfileRecords(records);
  std::printf("== Step 1: profile of legacy:accounts ==\n%s\n",
              profile.ToText().c_str());

  // ---- Step 2: offline replication with cleaning (§2.1) ----------------------
  relational::Database local("local");
  xmlql::SourceRef origin;
  origin.source = "legacy";
  origin.collection = "accounts";
  admin::ReplicationJob job(&catalog, &engine, &local, "accounts_replica",
                            origin);

  auto matcher = std::make_shared<cleaning::RecordMatcher>(
      std::vector<cleaning::MatchRule>{
          {"holder", cleaning::JaroWinklerSimilarity, 2.0, 0.0},
          {"region",
           [](const std::string& a, const std::string& b) {
             return a == b ? 1.0 : 0.0;
           },
           1.0, 0.5}},
      0.80, 0.93);
  cleaning::MergePurgeOptions options;
  options.strategy = cleaning::MatchStrategy::kNaivePairwise;
  auto flow = std::make_shared<cleaning::CleaningFlow>("etl");
  flow->NormalizeField("holder", cleaning::NormalizerPipeline::ForNames())
      .NormalizeField("region",
                      [] {
                        cleaning::NormalizerPipeline p;
                        p.Add("lower_case", cleaning::LowerCase);
                        return p;
                      }())
      .Deduplicate(matcher, options);
  job.SetCleaningFlow(flow);

  Result<admin::ReplicationRunStats> stats = job.Run();
  Check(stats);
  std::printf("== Step 2: replicated legacy:accounts -> local.accounts_replica"
              " ==\n");
  std::printf("fetched %zu, normalized %zu values, loaded %zu clean rows\n\n",
              stats->rows_before_cleaning, stats->values_normalized,
              stats->rows_loaded);
  Result<relational::ResultSet> rs =
      local.Execute("SELECT holder, region FROM accounts_replica "
                    "ORDER BY holder");
  Check(rs);
  for (const relational::Row& row : rs->rows) {
    std::printf("  %-16s %s\n", row[0].ToString().c_str(),
                row[1].ToString().c_str());
  }

  // The replica is itself a first-class source now.
  Check(catalog.RegisterSource(
      std::make_unique<connector::RelationalConnector>("local", &local)));

  // ---- Step 3: change detection ------------------------------------------------
  // Fetched documents are frozen snapshots: edit a copy, then replace.
  Result<NodePtr> stored = legacy_raw->FetchCollection("accounts");
  Check(stored);
  NodePtr doc = (*stored)->Clone();
  NodePtr fresh = Node::Element("a");
  fresh->AddScalarChild("holder", Value::String("Eve Adams"));
  fresh->AddScalarChild("ref", Value::String("ACCT-0303"));
  fresh->AddScalarChild("region", Value::String("east"));
  doc->AddChild(std::move(fresh));
  legacy_raw->PutDocument("accounts", std::move(doc));
  Result<bool> changed = job.OriginChanged();
  Check(changed);
  std::printf("\n== Step 3: origin changed? %s -> re-run loads %zu rows ==\n",
              *changed ? "yes" : "no", [&] {
                Result<admin::ReplicationRunStats> rerun = job.Run();
                Check(rerun);
                return rerun->rows_loaded;
              }());

  // ---- Step 4: the status board (§4) --------------------------------------------
  Check(catalog.DefineView("east_accounts", R"(
    WHERE <accounts_replica><row><holder>$h</holder><region>east</region>
          </row></accounts_replica> IN "local:accounts_replica"
    CONSTRUCT <acct>$h</acct>
  )"));
  VirtualClock clock;
  materialize::MaterializedViewStore store(&catalog, &engine, &clock);
  Check(store.Materialize("east_accounts"));

  admin::SystemMonitor monitor(&catalog, &store);
  std::printf("\n== Step 4: system status ==\n%s", monitor.ToText().c_str());
  return 0;
}
