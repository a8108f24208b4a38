#ifndef NIMBLE_DIST_CLUSTER_H_
#define NIMBLE_DIST_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dist/partition.h"
#include "dist/shard_connector.h"
#include "frontend/load_balancer.h"
#include "metadata/catalog.h"

namespace nimble {
namespace dist {

/// Shard-placement configuration.
struct ShardClusterOptions {
  size_t num_shards = 1;
  /// Every shard engine's options. Its `query_deadline_micros` is the
  /// per-shard deadline — a shard that cannot answer in time fails with
  /// Timeout, and the coordinator degrades it to partial results — and its
  /// `max_inflight_queries` the per-shard admission limit.
  core::EngineOptions engine_options;
  /// Test hooks, applied per shard at Init: adjust one shard's engine
  /// options (e.g. a private clock), or wrap one shard's source connectors
  /// (e.g. SimulatedSource latency injection for straggler tests).
  std::function<void(size_t shard, core::EngineOptions* options)>
      tweak_engine_options;
  std::function<std::unique_ptr<connector::Connector>(
      size_t shard, std::unique_ptr<connector::Connector> inner)>
      wrap_connector;
};

/// N in-process shard engines behind a frontend::LoadBalancer, each serving
/// its own catalog in which every global source is wrapped by a
/// ShardSourceConnector (sharded collections → this shard's fragment;
/// everything else forwarded). Mediated views are replicated into every
/// shard catalog in dependency order, so shard subplans can expand them
/// locally.
///
/// Lifecycle: construct → Partition(...) per sharded collection → Init()
/// → serve. Fragment installs are runtime-safe (Repartition swaps them
/// under the registry lock while queries run).
class ShardCluster {
 public:
  /// `catalog` is the coordinator-side global catalog (sources registered,
  /// views defined); must outlive the cluster.
  ShardCluster(metadata::Catalog* catalog, ShardClusterOptions options);
  ~ShardCluster();

  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  /// Splits one collection across the shards: fetches it from the global
  /// source, partitions per `spec`, registers the FragmentMap in the global
  /// catalog, and installs the fragments.
  Status Partition(const PartitionSpec& spec);

  /// Builds the shard catalogs/engines and subscribes the repartition
  /// listener (Catalog::NotifySourceUpdated on a source with sharded
  /// collections re-splits them with the existing topology).
  Status Init();

  /// Re-splits every sharded collection of `source_name` using its
  /// registered fragment map, then swaps the fragment sets in place.
  Status Repartition(const std::string& source_name);

  size_t num_shards() const { return options_.num_shards; }
  core::IntegrationEngine* shard_engine(size_t i) {
    return balancer_.engine(i);
  }
  frontend::LoadBalancer& balancer() { return balancer_; }
  const FragmentRegistry& registry() const { return registry_; }
  metadata::Catalog* catalog() { return catalog_; }
  const ShardClusterOptions& options() const { return options_; }

  /// Number of Repartition passes taken (monitor gauge).
  uint64_t repartitions() const {
    return repartitions_.load(std::memory_order_relaxed);
  }

 private:
  /// Installs one collection's fragments (one per shard, split by `map`)
  /// and their statistics: each fragment's into its shard catalog, the
  /// merged view into the global catalog.
  void Install(const metadata::FragmentMap& map,
               std::vector<NodePtr> fragments);

  metadata::Catalog* catalog_;
  ShardClusterOptions options_;
  FragmentRegistry registry_;
  /// One per shard from construction on, so Install can always seed their
  /// statistics. Declared before the balancer (whose engines reference
  /// them) so engines drain before their catalogs die.
  std::vector<std::unique_ptr<metadata::Catalog>> shard_catalogs_;
  frontend::LoadBalancer balancer_;
  uint64_t catalog_listener_token_ = 0;
  std::atomic<uint64_t> repartitions_{0};
  bool initialized_ = false;
};

}  // namespace dist
}  // namespace nimble

#endif  // NIMBLE_DIST_CLUSTER_H_
