#include "connector/hierarchical_connector.h"

namespace nimble {
namespace connector {

std::vector<std::string> HierarchicalConnector::Collections() {
  ReaderMutexLock lock(map_mutex_);
  std::vector<std::string> names;
  names.reserve(collection_paths_.size());
  for (const auto& [collection, path] : collection_paths_) {
    names.push_back(collection);
  }
  return names;
}

Result<NodePtr> HierarchicalConnector::FetchCollection(
    const std::string& collection, const RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  std::string base_path;
  {
    ReaderMutexLock lock(map_mutex_);
    auto it = collection_paths_.find(collection);
    if (it == collection_paths_.end()) {
      return Status::NotFound("source '" + name_ + "' has no collection '" +
                              collection + "'");
    }
    base_path = it->second;
  }
  NIMBLE_ASSIGN_OR_RETURN(NodePtr tree, store_->ExportXml(base_path));
  tree->Freeze();
  FetchStats delta;
  delta.calls = 1;
  delta.rows_shipped = tree->SubtreeSize();
  AddStats(ctx, delta);
  return tree;
}

void HierarchicalConnector::MapCollection(const std::string& collection_name,
                                          const std::string& base_path) {
  WriterMutexLock lock(map_mutex_);
  collection_paths_[collection_name] = base_path;
}

}  // namespace connector
}  // namespace nimble
