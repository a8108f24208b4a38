#include "dist/cluster.h"

#include <set>

#include "metadata/statistics.h"

namespace nimble {
namespace dist {

ShardCluster::ShardCluster(metadata::Catalog* catalog,
                           ShardClusterOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  for (size_t shard = 0; shard < options_.num_shards; ++shard) {
    shard_catalogs_.push_back(std::make_unique<metadata::Catalog>());
  }
}

ShardCluster::~ShardCluster() {
  if (catalog_listener_token_ != 0) {
    catalog_->RemoveUpdateListener(catalog_listener_token_);
  }
}

Status ShardCluster::Partition(const PartitionSpec& spec) {
  connector::Connector* source = catalog_->source(spec.source);
  if (source == nullptr) {
    return Status::NotFound("no source named '" + spec.source + "'");
  }
  PartitionSpec sized = spec;
  sized.num_fragments = options_.num_shards;
  NIMBLE_ASSIGN_OR_RETURN(NodePtr tree,
                          source->FetchCollection(sized.collection));
  NIMBLE_ASSIGN_OR_RETURN(PartitionedCollection parts,
                          PartitionCollection(*tree, sized));
  NIMBLE_RETURN_IF_ERROR(catalog_->RegisterFragmentMap(parts.map));
  Install(parts.map, std::move(parts.fragments));
  return Status::OK();
}

void ShardCluster::Install(const metadata::FragmentMap& map,
                           std::vector<NodePtr> fragments) {
  std::vector<metadata::CollectionStats> stats;
  stats.reserve(fragments.size());
  std::vector<ConstNodePtr> frozen;
  frozen.reserve(fragments.size());
  for (NodePtr& fragment : fragments) {
    stats.push_back(metadata::AnalyzeCollectionTree(
        map.source, map.collection, *fragment, /*sample_rows=*/0));
    frozen.push_back(fragment->Freeze());
  }
  registry_.Install(map.source, map.collection, std::move(frozen));
  catalog_->statistics().Put(metadata::MergeCollectionStats(stats));
  for (size_t i = 0; i < stats.size() && i < shard_catalogs_.size(); ++i) {
    shard_catalogs_[i]->statistics().Put(std::move(stats[i]));
  }
}

Status ShardCluster::Init() {
  if (initialized_) return Status::AlreadyExists("cluster already initialized");

  for (size_t shard = 0; shard < options_.num_shards; ++shard) {
    metadata::Catalog* shard_catalog = shard_catalogs_[shard].get();
    for (const std::string& source_name : catalog_->SourceNames()) {
      std::unique_ptr<connector::Connector> conn =
          std::make_unique<ShardSourceConnector>(
              &registry_, catalog_->source(source_name), shard);
      if (options_.wrap_connector) {
        conn = options_.wrap_connector(shard, std::move(conn));
      }
      NIMBLE_RETURN_IF_ERROR(shard_catalog->RegisterSource(std::move(conn)));
    }

    // Mediated views replicate in dependency order (DefineView validates
    // bottom-up); every pass defines at least one remaining view or the
    // global catalog held a cycle, which DefineView already rules out.
    std::set<std::string> defined;
    std::vector<std::string> remaining = catalog_->ViewNames();
    while (!remaining.empty()) {
      std::vector<std::string> next;
      for (const std::string& name : remaining) {
        const metadata::MediatedView* view = catalog_->view(name);
        bool ready = true;
        for (const std::string& dep : view->view_dependencies) {
          if (defined.count(dep) == 0) ready = false;
        }
        if (!ready) {
          next.push_back(name);
          continue;
        }
        NIMBLE_RETURN_IF_ERROR(shard_catalog->DefineView(
            name, view->query_text, view->description));
        defined.insert(name);
      }
      if (next.size() == remaining.size()) {
        return Status::Internal("view dependency cycle while replicating");
      }
      remaining = std::move(next);
    }

    core::EngineOptions opts = options_.engine_options;
    if (options_.tweak_engine_options) {
      options_.tweak_engine_options(shard, &opts);
    }
    balancer_.AddEngine(
        std::make_unique<core::IntegrationEngine>(shard_catalog, opts));
  }

  catalog_listener_token_ =
      catalog_->AddUpdateListener([this](const std::string& source_name) {
        for (const metadata::FragmentMap* map : catalog_->FragmentMaps()) {
          if (map->source == source_name) {
            // Best-effort: a failed repartition keeps serving the previous
            // fragment set (the registry swap never happened).
            (void)Repartition(source_name);
            return;
          }
        }
      });
  initialized_ = true;
  return Status::OK();
}

Status ShardCluster::Repartition(const std::string& source_name) {
  connector::Connector* source = catalog_->source(source_name);
  if (source == nullptr) {
    return Status::NotFound("no source named '" + source_name + "'");
  }
  for (const metadata::FragmentMap* map : catalog_->FragmentMaps()) {
    if (map->source != source_name) continue;
    NIMBLE_ASSIGN_OR_RETURN(NodePtr tree,
                            source->FetchCollection(map->collection));
    Install(*map, SplitCollection(*tree, *map));
  }
  repartitions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace dist
}  // namespace nimble
