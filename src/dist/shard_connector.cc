#include "dist/shard_connector.h"

namespace nimble {
namespace dist {

void FragmentRegistry::Install(const std::string& source,
                               const std::string& collection,
                               std::vector<ConstNodePtr> fragments) {
  {
    MutexLock lock(mu_);
    fragments_[Key(source, collection)] = std::move(fragments);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

ConstNodePtr FragmentRegistry::Get(const std::string& source,
                                   const std::string& collection,
                                   size_t shard) const {
  MutexLock lock(mu_);
  auto it = fragments_.find(Key(source, collection));
  if (it == fragments_.end() || shard >= it->second.size()) return nullptr;
  return it->second[shard];
}

bool FragmentRegistry::IsSharded(const std::string& source,
                                 const std::string& collection) const {
  MutexLock lock(mu_);
  return fragments_.count(Key(source, collection)) > 0;
}

std::vector<size_t> FragmentRegistry::FragmentRowCounts(
    const std::string& source, const std::string& collection) const {
  std::vector<ConstNodePtr> snapshot;
  {
    MutexLock lock(mu_);
    auto it = fragments_.find(Key(source, collection));
    if (it == fragments_.end()) return {};
    snapshot = it->second;
  }
  std::vector<size_t> counts;
  counts.reserve(snapshot.size());
  for (const ConstNodePtr& fragment : snapshot) {
    counts.push_back(fragment == nullptr ? 0 : fragment->children().size());
  }
  return counts;
}

Result<NodePtr> ShardSourceConnector::FetchCollection(
    const std::string& collection, const connector::RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  ConstNodePtr fragment = registry_->Get(name(), collection, shard_index_);
  if (fragment == nullptr) {
    // Unsharded collection: serve the whole thing from the real source
    // (its own stats/admission apply).
    return inner_->FetchCollection(collection, ctx);
  }
  connector::FetchStats delta;
  delta.calls = 1;
  delta.rows_shipped = fragment->children().size();
  AddStats(ctx, delta);
  // nimble-lint: frozen(fetch contract: fetched trees are frozen snapshots; callers that edit must Clone first)
  return std::const_pointer_cast<Node>(fragment);
}

}  // namespace dist
}  // namespace nimble
