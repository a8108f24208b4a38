#ifndef NIMBLE_RELATIONAL_TABLE_H_
#define NIMBLE_RELATIONAL_TABLE_H_

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "relational/index.h"
#include "relational/schema.h"

namespace nimble {
namespace relational {

/// An in-memory column-store table with optional secondary indexes: one
/// Value vector per schema column, so scans and join builds read the
/// columns they need without materializing intermediate Rows. Deleted rows
/// are tombstoned in a bitmap (cheap deletes); the live tombstone count is
/// tracked so scans over a dense table (the common case) skip the bitmap
/// entirely. Indexes are rebuilt after every delete and update.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {
    columns_.resize(schema_.num_columns());
  }

  const TableSchema& schema() const { return schema_; }

  /// Validates, coerces and appends `row`. Enforces primary-key uniqueness
  /// when a primary key is declared. Updates indexes.
  Status Insert(Row row);

  /// Number of live rows.
  size_t size() const { return live_rows_; }

  /// Value at (physical row id, column).
  const Value& at(size_t row_id, size_t column) const {
    return columns_[column][row_id];
  }

  bool IsLive(size_t row_id) const {
    return row_id < num_rows_ && !tombstones_[row_id];
  }

  /// Calls `fn(row_id)` for every live row. When the table is dense the
  /// tombstone bitmap is never consulted.
  template <typename Fn>
  void ForEachLiveRow(Fn&& fn) const {
    if (tombstone_count_ == 0) {
      for (size_t i = 0; i < num_rows_; ++i) fn(i);
      return;
    }
    for (size_t i = 0; i < num_rows_; ++i) {
      if (!tombstones_[i]) fn(i);
    }
  }

  /// Tombstones the live rows among `row_ids`; returns how many it removed.
  size_t DeleteRows(const std::vector<size_t>& row_ids);

  /// Replaces live row `row_ids[i]` with `rows[i]`. Every row is coerced
  /// and validated before the first write, so a rejected value leaves the
  /// table unchanged.
  Status UpdateRows(const std::vector<size_t>& row_ids, std::vector<Row> rows);

  /// Creates an ordered secondary index named `index_name` over `column`.
  Status CreateIndex(const std::string& index_name, const std::string& column);

  /// The index over `column`, or nullptr.
  const OrderedIndex* FindIndexOn(const std::string& column) const;
  const OrderedIndex* FindIndexOn(size_t column) const;

  const std::vector<std::unique_ptr<OrderedIndex>>& indexes() const {
    return indexes_;
  }

  /// Monotone version counter, bumped by every mutation. Used by the
  /// materialization layer to detect staleness.
  uint64_t version() const { return version_; }

 private:
  void RebuildIndexes();

  TableSchema schema_;
  std::vector<std::vector<Value>> columns_;  ///< [column][physical row].
  size_t num_rows_ = 0;
  std::vector<bool> tombstones_;
  size_t tombstone_count_ = 0;
  size_t live_rows_ = 0;
  std::vector<std::unique_ptr<OrderedIndex>> indexes_;
  uint64_t version_ = 0;
};

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_TABLE_H_
