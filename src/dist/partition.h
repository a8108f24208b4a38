#ifndef NIMBLE_DIST_PARTITION_H_
#define NIMBLE_DIST_PARTITION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "metadata/fragment_map.h"
#include "xml/node.h"

namespace nimble {
namespace dist {

/// How to split one collection (the LinearTablePartitioner knob set: key,
/// keying scheme, fragment count).
struct PartitionSpec {
  std::string source;
  std::string collection;
  /// Record field the split keys on: child element tag, or "@name" for a
  /// record attribute.
  std::string partition_key;
  metadata::FragmentMap::Kind kind = metadata::FragmentMap::Kind::kHash;
  size_t num_fragments = 1;
};

/// One partitioned collection: the catalog-side map plus the per-fragment
/// record trees.
struct PartitionedCollection {
  metadata::FragmentMap map;
  /// fragments[i]: an element named like the input root whose children are
  /// fragment i's records, in the input's document order.
  std::vector<NodePtr> fragments;
};

/// The partition-key value of one record under the naming convention above.
/// Null when the record lacks the field — such records land in fragment 0
/// (hash of Null / below every range bound), and a pruned equality probe
/// can never match them, so pruning stays sound.
Value PartitionKeyOf(const Node& record, const std::string& partition_key);

/// Splits `root`'s records by `map`: fragment i is an element named like
/// `root` holding copies of the records whose key routes to i, in document
/// order (non-element children go to fragment 0).
std::vector<NodePtr> SplitCollection(const Node& root,
                                     const metadata::FragmentMap& map);

/// The fragment map for `spec` and `root` split by it. For kRange the map's
/// bounds are equi-depth quantiles of the observed key values; fails when
/// the collection has too few distinct keys to cut num_fragments-1
/// strictly ascending bounds.
Result<PartitionedCollection> PartitionCollection(const Node& root,
                                                  const PartitionSpec& spec);

}  // namespace dist
}  // namespace nimble

#endif  // NIMBLE_DIST_PARTITION_H_
