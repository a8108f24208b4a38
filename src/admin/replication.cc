#include "admin/replication.h"

#include <map>

#include "xmlql/parser.h"

namespace nimble {
namespace admin {

relational::TableSchema InferSchema(
    const std::string& table_name,
    const std::vector<cleaning::KeyedRecord>& records) {
  // Field → observed type (null until seen; widened on conflict).
  std::map<std::string, std::optional<ValueType>> observed;
  for (const cleaning::KeyedRecord& record : records) {
    for (const auto& [field, value] : record.fields) {
      if (value.is_null()) {
        observed.try_emplace(field, std::nullopt);
        continue;
      }
      auto [it, inserted] = observed.try_emplace(field, value.type());
      if (inserted || !it->second.has_value()) {
        it->second = value.type();
        continue;
      }
      ValueType seen = *it->second;
      ValueType now = value.type();
      if (seen == now) continue;
      bool numeric_pair =
          (seen == ValueType::kInt || seen == ValueType::kDouble) &&
          (now == ValueType::kInt || now == ValueType::kDouble);
      it->second = numeric_pair ? ValueType::kDouble : ValueType::kString;
    }
  }
  std::vector<relational::Column> columns;
  for (const auto& [field, type] : observed) {
    relational::Column col;
    col.name = field;
    col.type = type.value_or(ValueType::kString);
    col.nullable = true;
    columns.push_back(std::move(col));
  }
  return relational::TableSchema(table_name, std::move(columns));
}

Result<std::vector<cleaning::KeyedRecord>> ReplicationJob::FetchRecords(
    uint64_t* version) const {
  NodePtr tree;
  if (what_.is_view()) {
    const metadata::MediatedView* view = catalog_->view(what_.collection);
    if (view == nullptr) {
      return Status::NotFound("no view '" + what_.collection + "'");
    }
    NIMBLE_ASSIGN_OR_RETURN(core::QueryResult result,
                            engine_->ExecuteText(view->query_text));
    tree = result.document;
    *version = 0;
    for (const std::string& src : view->source_dependencies) {
      connector::Connector* source = catalog_->source(src);
      if (source != nullptr) *version += source->DataVersion();
    }
  } else {
    connector::Connector* source = catalog_->source(what_.source);
    if (source == nullptr) {
      return Status::NotFound("no source '" + what_.source + "'");
    }
    NIMBLE_ASSIGN_OR_RETURN(tree, source->FetchCollection(what_.collection));
    *version = source->DataVersion();
  }
  std::vector<cleaning::KeyedRecord> records;
  size_t index = 0;
  for (const NodePtr& child : tree->children()) {
    if (!child->is_element()) continue;
    cleaning::KeyedRecord record;
    record.id = what_.ToString() + "#" + std::to_string(index++);
    record.fields = cleaning::RecordFromXml(*child);
    if (!record.fields.empty()) records.push_back(std::move(record));
  }
  return records;
}

Result<ReplicationRunStats> ReplicationJob::Run() {
  ReplicationRunStats stats;
  uint64_t version = 0;
  NIMBLE_ASSIGN_OR_RETURN(std::vector<cleaning::KeyedRecord> records,
                          FetchRecords(&version));
  stats.rows_before_cleaning = records.size();
  stats.source_version = version;

  if (flow_ != nullptr) {
    NIMBLE_ASSIGN_OR_RETURN(cleaning::FlowOutput cleaned,
                            flow_->Run(std::move(records)));
    records = std::move(cleaned.records);
    stats.values_normalized = cleaned.values_normalized;
  }

  // Full-replace semantics: drop and recreate the replica table.
  relational::TableSchema schema = InferSchema(target_table_, records);
  if (target_->GetTable(target_table_) != nullptr) {
    // No DROP TABLE in the SQL subset; emulate by deleting all rows when
    // the schema is unchanged, else fail loudly.
    relational::Table* existing = target_->GetTable(target_table_);
    bool same_schema =
        existing->schema().num_columns() == schema.num_columns();
    if (same_schema) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (existing->schema().columns()[c].name !=
                schema.columns()[c].name ||
            existing->schema().columns()[c].type !=
                schema.columns()[c].type) {
          same_schema = false;
          break;
        }
      }
    }
    if (!same_schema) {
      return Status::InvalidArgument(
          "replica table '" + target_table_ +
          "' exists with a different schema; drop it first");
    }
    std::vector<size_t> live;
    existing->ForEachLiveRow([&](size_t id) { live.push_back(id); });
    existing->DeleteRows(live);
    for (const cleaning::KeyedRecord& record : records) {
      relational::Row row;
      for (const relational::Column& col : schema.columns()) {
        auto it = record.fields.find(col.name);
        row.push_back(it == record.fields.end() ? Value::Null() : it->second);
      }
      NIMBLE_RETURN_IF_ERROR(existing->Insert(std::move(row)));
      ++stats.rows_loaded;
    }
  } else {
    NIMBLE_ASSIGN_OR_RETURN(relational::Table * table,
                            target_->CreateTable(schema));
    for (const cleaning::KeyedRecord& record : records) {
      relational::Row row;
      for (const relational::Column& col : schema.columns()) {
        auto it = record.fields.find(col.name);
        row.push_back(it == record.fields.end() ? Value::Null() : it->second);
      }
      NIMBLE_RETURN_IF_ERROR(table->Insert(std::move(row)));
      ++stats.rows_loaded;
    }
  }
  last_loaded_version_ = version;
  return stats;
}

Result<bool> ReplicationJob::OriginChanged() const {
  if (!last_loaded_version_.has_value()) return true;
  uint64_t version = 0;
  if (what_.is_view()) {
    const metadata::MediatedView* view = catalog_->view(what_.collection);
    if (view == nullptr) {
      return Status::NotFound("no view '" + what_.collection + "'");
    }
    for (const std::string& src : view->source_dependencies) {
      connector::Connector* source = catalog_->source(src);
      if (source != nullptr) version += source->DataVersion();
    }
  } else {
    connector::Connector* source = catalog_->source(what_.source);
    if (source == nullptr) {
      return Status::NotFound("no source '" + what_.source + "'");
    }
    version = source->DataVersion();
  }
  return version != *last_loaded_version_;
}

}  // namespace admin
}  // namespace nimble
