#ifndef NIMBLE_RELATIONAL_INDEX_H_
#define NIMBLE_RELATIONAL_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace nimble {
namespace relational {

/// An ordered secondary index over one column. Maps column value → row ids.
/// Supports equality and range probes; the mediator's compiler consults
/// index presence when deciding what to push down (paper §2.1: the compiler
/// considers "the presence of indices on the data").
class OrderedIndex {
 public:
  OrderedIndex(std::string index_name, size_t column)
      : name_(std::move(index_name)), column_(column) {}

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }

  void Insert(const Value& key, size_t row_id) {
    entries_.emplace(key, row_id);
  }

  void Clear() { entries_.clear(); }

  /// Row ids with column == key.
  std::vector<size_t> Lookup(const Value& key) const;

  /// Row ids with lo <= column <= hi (either bound may be null = open).
  std::vector<size_t> Range(const Value& lo, bool lo_inclusive,
                            const Value& hi, bool hi_inclusive) const;

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };

  std::string name_;
  size_t column_;
  std::multimap<Value, size_t, ValueLess> entries_;
};

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_INDEX_H_
