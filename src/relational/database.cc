#include "relational/database.h"

#include "relational/sql_parser.h"

namespace nimble {
namespace relational {

Result<Table*> Database::CreateTable(TableSchema schema) {
  const std::string table_name = schema.name();
  if (tables_.count(table_name) > 0) {
    return Status::AlreadyExists("table '" + table_name + "' already exists");
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* ptr = table.get();
  tables_[table_name] = std::move(table);
  return ptr;
}

Table* Database::GetTable(const std::string& table_name) {
  auto it = tables_.find(table_name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& table_name) const {
  auto it = tables_.find(table_name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<Table*> Database::FindTable(const std::string& table_name) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("no table '" + table_name + "'");
  return table;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Result<ResultSet> Database::Execute(std::string_view sql) {
  NIMBLE_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));

  if (auto* select = std::get_if<SelectStmt>(&stmt)) {
    return Query(*select);
  }

  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    NIMBLE_ASSIGN_OR_RETURN(Table * table, FindTable(insert->table));
    const TableSchema& schema = table->schema();
    for (const std::vector<Value>& values : insert->rows) {
      Row row;
      if (insert->columns.empty()) {
        row = values;
      } else {
        if (values.size() != insert->columns.size()) {
          return Status::InvalidArgument("VALUES arity mismatch");
        }
        row.assign(schema.num_columns(), Value::Null());
        for (size_t i = 0; i < insert->columns.size(); ++i) {
          std::optional<size_t> col = schema.ColumnIndex(insert->columns[i]);
          if (!col.has_value()) {
            return Status::NotFound("no column '" + insert->columns[i] +
                                    "' in table '" + insert->table + "'");
          }
          row[*col] = values[i];
        }
      }
      NIMBLE_RETURN_IF_ERROR(table->Insert(std::move(row)));
    }
    ResultSet rs;
    rs.stats.rows_returned = insert->rows.size();
    return rs;
  }

  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    TableSchema schema(create->table, create->columns);
    if (!create->primary_key.empty()) {
      NIMBLE_RETURN_IF_ERROR(schema.SetPrimaryKey(create->primary_key));
    }
    NIMBLE_ASSIGN_OR_RETURN(Table * table, CreateTable(std::move(schema)));
    // A primary key implies an index (used for uniqueness checks and probes).
    if (!create->primary_key.empty()) {
      NIMBLE_RETURN_IF_ERROR(
          table->CreateIndex("pk_" + create->table, create->primary_key));
    }
    return ResultSet{};
  }

  if (auto* create_index = std::get_if<CreateIndexStmt>(&stmt)) {
    NIMBLE_ASSIGN_OR_RETURN(Table * table, FindTable(create_index->table));
    NIMBLE_RETURN_IF_ERROR(
        table->CreateIndex(create_index->index_name, create_index->column));
    return ResultSet{};
  }

  if (auto* del = std::get_if<DeleteStmt>(&stmt)) {
    NIMBLE_ASSIGN_OR_RETURN(Table * table, FindTable(del->table));
    return Delete(table, *del);
  }

  if (auto* update = std::get_if<UpdateStmt>(&stmt)) {
    NIMBLE_ASSIGN_OR_RETURN(Table * table, FindTable(update->table));
    return Update(table, *update);
  }

  return Status::Internal("unhandled statement variant");
}

uint64_t Database::Version() const {
  uint64_t v = 0;
  for (const auto& [name, table] : tables_) v += table->version();
  return v;
}

}  // namespace relational
}  // namespace nimble
