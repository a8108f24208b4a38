#include "relational/table.h"

namespace nimble {
namespace relational {

Status Table::Insert(Row row) {
  schema_.CoerceRow(&row);
  NIMBLE_RETURN_IF_ERROR(schema_.ValidateRow(row));
  if (schema_.primary_key().has_value()) {
    size_t pk = *schema_.primary_key();
    const Value& key = row[pk];
    const OrderedIndex* pk_index = FindIndexOn(pk);
    if (pk_index != nullptr) {
      if (!pk_index->Lookup(key).empty()) {
        return Status::AlreadyExists("duplicate primary key " + key.ToString() +
                                     " in table '" + schema_.name() + "'");
      }
    } else {
      const std::vector<Value>& pk_column = columns_[pk];
      for (size_t i = 0; i < num_rows_; ++i) {
        if (!tombstones_[i] && pk_column[i] == key) {
          return Status::AlreadyExists("duplicate primary key " +
                                       key.ToString() + " in table '" +
                                       schema_.name() + "'");
        }
      }
    }
  }
  size_t row_id = num_rows_;
  for (auto& index : indexes_) {
    index->Insert(row[index->column()], row_id);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  tombstones_.push_back(false);
  ++live_rows_;
  ++version_;
  return Status::OK();
}

size_t Table::DeleteRows(const std::vector<size_t>& row_ids) {
  size_t removed = 0;
  for (size_t id : row_ids) {
    if (!IsLive(id)) continue;
    tombstones_[id] = true;
    ++tombstone_count_;
    --live_rows_;
    ++removed;
  }
  if (removed > 0) {
    RebuildIndexes();
    ++version_;
  }
  return removed;
}

Status Table::UpdateRows(const std::vector<size_t>& row_ids,
                         std::vector<Row> rows) {
  assert(row_ids.size() == rows.size());
  for (Row& row : rows) {
    schema_.CoerceRow(&row);
    NIMBLE_RETURN_IF_ERROR(schema_.ValidateRow(row));
  }
  for (size_t i = 0; i < row_ids.size(); ++i) {
    assert(IsLive(row_ids[i]));
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c][row_ids[i]] = std::move(rows[i][c]);
    }
  }
  if (!row_ids.empty()) {
    RebuildIndexes();
    ++version_;
  }
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  std::optional<size_t> col = schema_.ColumnIndex(column);
  if (!col.has_value()) {
    return Status::NotFound("no column '" + column + "' in table '" +
                            schema_.name() + "'");
  }
  for (const auto& index : indexes_) {
    if (index->name() == index_name) {
      return Status::AlreadyExists("index '" + index_name + "' exists");
    }
  }
  auto index = std::make_unique<OrderedIndex>(index_name, *col);
  const std::vector<Value>& values = columns_[*col];
  ForEachLiveRow([&](size_t i) { index->Insert(values[i], i); });
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const OrderedIndex* Table::FindIndexOn(const std::string& column) const {
  std::optional<size_t> col = schema_.ColumnIndex(column);
  if (!col.has_value()) return nullptr;
  return FindIndexOn(*col);
}

const OrderedIndex* Table::FindIndexOn(size_t column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

void Table::RebuildIndexes() {
  for (auto& index : indexes_) {
    index->Clear();
    const std::vector<Value>& values = columns_[index->column()];
    ForEachLiveRow([&](size_t i) { index->Insert(values[i], i); });
  }
}

}  // namespace relational
}  // namespace nimble
