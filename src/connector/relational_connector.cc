#include "connector/relational_connector.h"

namespace nimble {
namespace connector {

SourceCapabilities RelationalConnector::capabilities() const {
  SourceCapabilities caps;
  caps.supports_sql = true;
  caps.supports_predicates = true;
  // The catalog walk below must not race with DDL through ExecuteSql.
  ReaderMutexLock lock(db_mutex_);
  for (const std::string& table_name : db_->TableNames()) {
    const relational::Table* table = db_->GetTable(table_name);
    for (const auto& index : table->indexes()) {
      caps.indexed_columns.emplace_back(
          table_name, table->schema().columns()[index->column()].name);
    }
  }
  return caps;
}

std::vector<std::string> RelationalConnector::Collections() {
  ReaderMutexLock lock(db_mutex_);
  return db_->TableNames();
}

uint64_t RelationalConnector::DataVersion() {
  ReaderMutexLock lock(db_mutex_);
  return db_->Version();
}

Result<NodePtr> RelationalConnector::FetchCollection(
    const std::string& collection, const RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  // A collection fetch is SELECT * in disguise; emit the XML records
  // straight from the table's column arrays instead of routing through the
  // SQL executor and materializing an intermediate ResultSet row per record.
  NodePtr root = Node::Element(collection);
  size_t shipped = 0;
  {
    ReaderMutexLock lock(db_mutex_);
    const relational::Table* table = db_->GetTable(collection);
    if (table == nullptr) {
      return Status::NotFound("no table '" + collection + "' in database '" +
                              db_->name() + "'");
    }
    const std::vector<relational::Column>& columns = table->schema().columns();
    table->ForEachLiveRow([&](size_t id) {
      NodePtr record = Node::Element("row");
      for (size_t c = 0; c < columns.size(); ++c) {
        record->AddScalarChild(columns[c].name, table->at(id, c));
      }
      // Frozen while still in cache: the root's Freeze() below then stops
      // at each record instead of walking the whole tree again.
      root->AddChild(std::move(record))->Freeze();
      ++shipped;
    });
  }
  root->Freeze();
  FetchStats delta;
  delta.calls = 1;
  delta.rows_shipped = shipped;
  AddStats(ctx, delta);
  return root;
}

namespace {

/// True when `sql` is a plain read (leading keyword SELECT) and can run
/// under a shared lock; everything else gets the exclusive lock.
bool IsSelect(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return false;
  static constexpr char kSelect[] = "select";
  for (size_t k = 0; k < 6; ++k) {
    if (i + k >= sql.size()) return false;
    char c = sql[i + k];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != kSelect[k]) return false;
  }
  return true;
}

}  // namespace

Result<relational::ResultSet> RelationalConnector::ExecuteSql(
    const std::string& sql, const RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  relational::ResultSet rs;
  if (IsSelect(sql)) {
    ReaderMutexLock lock(db_mutex_);
    NIMBLE_ASSIGN_OR_RETURN(rs, db_->Execute(sql));
  } else {
    WriterMutexLock lock(db_mutex_);
    NIMBLE_ASSIGN_OR_RETURN(rs, db_->Execute(sql));
  }
  FetchStats delta;
  delta.calls = 1;
  delta.rows_shipped = rs.rows.size();
  AddStats(ctx, delta);
  return rs;
}

}  // namespace connector
}  // namespace nimble
