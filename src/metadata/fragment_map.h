#ifndef NIMBLE_METADATA_FRAGMENT_MAP_H_
#define NIMBLE_METADATA_FRAGMENT_MAP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "xml/value.h"
#include "xmlql/ast.h"

namespace nimble {
namespace metadata {

/// How one collection is split into horizontal fragments — the catalog-side
/// description of a sharded collection (the hdk `TableFragmentsInfo` shape:
/// fragment count and keying). The map is pure metadata: the fragment
/// *trees* — and their live row counts — live with the shard cluster that
/// serves them; this records how a row's partition-key value maps to a
/// fragment so the coordinator can prune shards without touching data.
///
/// Keying:
///  - kHash: fragment = HashValue(key) % num_fragments. HashValue is the
///    KMV sketch hash, consistent with Value equality across the numeric
///    family, so an Int(5) probe lands where a Double(5.0) row was placed.
///  - kRange: `range_upper_bounds` holds num_fragments-1 ascending split
///    points; fragment i covers keys < range_upper_bounds[i] not covered by
///    an earlier fragment, and the last fragment is unbounded above. Null /
///    missing keys sort below every bound (Value's total order) and land in
///    fragment 0 — no special case.
struct FragmentMap {
  enum class Kind { kHash, kRange };

  std::string source;
  std::string collection;
  /// Record field the keying reads: a child element tag, or "@name" for a
  /// record attribute (the ColumnStats naming convention).
  std::string partition_key;
  Kind kind = Kind::kHash;
  size_t num_fragments = 1;
  /// kRange only: ascending exclusive upper bounds, size num_fragments-1.
  std::vector<Value> range_upper_bounds;

  /// Fragment the partitioner assigns a row with this key value to.
  size_t FragmentForKey(const Value& key) const;

  /// Fragments that can possibly hold a row whose partition key satisfies
  /// `key OP literal` — the shard-pruning primitive. Sound, not complete:
  /// kEq prunes under both keyings, range comparisons prune under kRange,
  /// and everything else returns all fragments.
  std::vector<size_t> FragmentsForCondition(xmlql::Condition::Op op,
                                            const Value& literal) const;

  std::vector<size_t> AllFragments() const;

  static const char* KindName(Kind kind);
};

}  // namespace metadata
}  // namespace nimble

#endif  // NIMBLE_METADATA_FRAGMENT_MAP_H_
