#include "dist/partition.h"

#include <algorithm>

namespace nimble {
namespace dist {

Value PartitionKeyOf(const Node& record, const std::string& partition_key) {
  if (!record.is_element()) return Value::Null();
  if (!partition_key.empty() && partition_key[0] == '@') {
    return record.GetAttribute(partition_key.substr(1));
  }
  NodePtr child = record.FindChild(partition_key);
  return child == nullptr ? Value::Null() : child->ScalarValue();
}

namespace {

/// Equi-depth split points: n-1 ascending bounds cutting the sorted key
/// multiset into n roughly equal runs. Fails when the collection's distinct
/// keys cannot support that many strictly ascending cuts.
Result<std::vector<Value>> RangeBounds(std::vector<Value> keys, size_t n) {
  std::sort(keys.begin(), keys.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  std::vector<Value> bounds;
  for (size_t i = 1; i < n; ++i) {
    const Value& candidate = keys[i * keys.size() / n];
    if (!bounds.empty() && bounds.back().Compare(candidate) >= 0) {
      return Status::InvalidArgument(
          "too few distinct partition-key values for " + std::to_string(n) +
          " range fragments");
    }
    bounds.push_back(candidate);
  }
  return bounds;
}

}  // namespace

std::vector<NodePtr> SplitCollection(const Node& root,
                                     const metadata::FragmentMap& map) {
  std::vector<NodePtr> fragments;
  fragments.reserve(map.num_fragments);
  for (size_t i = 0; i < map.num_fragments; ++i) {
    fragments.push_back(Node::Element(root.name()));
  }
  for (const NodePtr& record : root.children()) {
    if (record == nullptr) continue;
    size_t fragment = 0;
    if (record->is_element()) {
      fragment = map.FragmentForKey(PartitionKeyOf(*record, map.partition_key));
    }
    fragments[fragment]->AddChild(record->Clone());
  }
  return fragments;
}

Result<PartitionedCollection> PartitionCollection(const Node& root,
                                                  const PartitionSpec& spec) {
  if (spec.num_fragments == 0) {
    return Status::InvalidArgument("cannot partition into zero fragments");
  }
  PartitionedCollection out;
  out.map.source = spec.source;
  out.map.collection = spec.collection;
  out.map.partition_key = spec.partition_key;
  out.map.kind = spec.kind;
  out.map.num_fragments = spec.num_fragments;

  if (spec.kind == metadata::FragmentMap::Kind::kRange &&
      spec.num_fragments > 1) {
    std::vector<Value> keys;
    keys.reserve(root.children().size());
    for (const NodePtr& record : root.children()) {
      if (record != nullptr && record->is_element()) {
        keys.push_back(PartitionKeyOf(*record, spec.partition_key));
      }
    }
    if (keys.size() < spec.num_fragments) {
      return Status::InvalidArgument("collection has fewer records than "
                                     "requested range fragments");
    }
    NIMBLE_ASSIGN_OR_RETURN(out.map.range_upper_bounds,
                            RangeBounds(std::move(keys), spec.num_fragments));
  }

  out.fragments = SplitCollection(root, out.map);
  return out;
}

}  // namespace dist
}  // namespace nimble
