#ifndef NIMBLE_CONNECTOR_RELATIONAL_CONNECTOR_H_
#define NIMBLE_CONNECTOR_RELATIONAL_CONNECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "connector/connector.h"
#include "relational/database.h"

namespace nimble {
namespace connector {

/// Wraps a relational::Database as a federated source. This is the "RDB"
/// endpoint of the paper: the mediator's compiler generates SQL text, this
/// connector parses and executes it in the source engine (so pushdown runs
/// the source's own planner and indexes — the real code path, per
/// DESIGN.md's substitution table).
///
/// Pushed-down SELECTs take a shared lock (concurrent reads); any other
/// statement (DDL/DML) takes an exclusive lock, so mutations through
/// ExecuteSql serialise against in-flight queries. Writes that bypass the
/// connector (direct Database access) must not race with queries.
class RelationalConnector : public Connector {
 public:
  /// `db` must outlive the connector.
  RelationalConnector(std::string source_name, relational::Database* db)
      : name_(std::move(source_name)), db_(db) {}

  const std::string& name() const override { return name_; }
  SourceCapabilities capabilities() const override;
  std::vector<std::string> Collections() override;
  using Connector::FetchCollection;
  using Connector::ExecuteSql;
  Result<NodePtr> FetchCollection(const std::string& collection,
                                  const RequestContext& ctx) override;
  Result<relational::ResultSet> ExecuteSql(const std::string& sql,
                                           const RequestContext& ctx) override;
  uint64_t DataVersion() override;

  relational::Database* database() { return db_; }

 private:
  const std::string name_;
  /// All reads of the database — including the catalog walks in
  /// capabilities()/Collections()/DataVersion() — hold db_mutex_ shared;
  /// DDL/DML through ExecuteSql holds it exclusive.
  relational::Database* db_ NIMBLE_PT_GUARDED_BY(db_mutex_);
  mutable SharedMutex db_mutex_{LockRank::kConnectorData,
                                "relational_connector.db"};
};

}  // namespace connector
}  // namespace nimble

#endif  // NIMBLE_CONNECTOR_RELATIONAL_CONNECTOR_H_
