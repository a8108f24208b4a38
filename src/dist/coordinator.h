#ifndef NIMBLE_DIST_COORDINATOR_H_
#define NIMBLE_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "dist/cluster.h"
#include "opt/cost_model.h"

namespace nimble {
namespace dist {

/// Scatter-gather configuration.
struct DistOptions {
  /// Wall-clock budget the gather side grants ALL shards of a query (0 =
  /// wait forever). A shard that has not answered when the budget runs out
  /// is cancelled and — under AvailabilityPolicy::kPartial — degraded to
  /// the partial-results path instead of stalling the whole query.
  int64_t straggler_wait_micros = 0;
  /// Collections whose merged row count (global catalog statistics) falls
  /// below this run undistributed on the local engine — scatter overhead
  /// is not worth paying for tiny collections. The decision reads only the
  /// shard-count-independent merged statistics, so a 1-shard and a 4-shard
  /// deployment make the same choice (the differential-test invariant).
  double min_scatter_rows = 0.0;
};

/// Monitor-facing counter snapshot.
struct CoordinatorCounters {
  uint64_t scatter_queries = 0;   ///< queries executed scatter-gather.
  uint64_t fallback_queries = 0;  ///< queries run whole on the local engine.
  uint64_t subqueries = 0;        ///< per-shard subplans dispatched.
  uint64_t shards_pruned = 0;     ///< shard subplans skipped by pruning.
  uint64_t merge_rows = 0;        ///< rows through the gather's sort.
  uint64_t stragglers = 0;        ///< shard subplans past their deadline.
  uint64_t partial_results = 0;   ///< queries answered incomplete.
};

/// The scatter-gather coordinator (DESIGN.md §2i): compiles a query,
/// decides per UNION branch whether it can be scattered over the cluster's
/// shard engines, and prunes shards that cannot hold matching rows. Each
/// target shard gets the query text and a branch index and answers with
/// the bindings of that branch's single pattern (fetch, match, local
/// conditions). The gather concatenates them and runs the rest of the
/// branch — aggregation, CONSTRUCT, canonical order, LIMIT — producing a
/// result byte-identical to what one engine over the unsharded data in
/// canonical order would produce.
///
/// Anything it cannot prove distributable — multi-pattern joins, view
/// sources, unsharded collections — falls back to an owned local engine
/// over the global (unsharded) catalog, so every query keeps working;
/// distribution is purely an optimization.
///
/// ExecuteText is safe to call from many threads at once.
class Coordinator {
 public:
  /// `cluster` must be Init()ed and must outlive the coordinator. The
  /// local fallback engine is built over the cluster's global catalog with
  /// `local_engine_options` (its availability policy is also the default
  /// policy for straggler degradation).
  explicit Coordinator(ShardCluster* cluster, DistOptions options = {},
                       core::EngineOptions local_engine_options = {});

  Result<core::QueryResult> ExecuteText(
      std::string_view xmlql_text, const core::QueryOptions& query_options = {});

  CoordinatorCounters counters() const;
  ShardCluster* cluster() { return cluster_; }
  core::IntegrationEngine* local_engine() { return &local_; }
  const DistOptions& options() const { return options_; }

 private:
  struct BranchPlan;

  /// Decides scatterability of one branch and, when scatterable, fills the
  /// plan (target shards, pruning, EXPLAIN detail). Returns false with a
  /// reason when the branch must fall back.
  bool PlanBranch(const xmlql::Query& query,
                  const core::Fragmentation& fragmentation, BranchPlan* plan,
                  std::string* reason) const;

  Result<core::QueryResult> ExecuteScattered(
      std::string_view xmlql_text, std::vector<BranchPlan> plans,
      const core::QueryOptions& query_options);

  ShardCluster* cluster_;
  DistOptions options_;
  opt::CostModel cost_model_;
  core::IntegrationEngine local_;

  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> fallback_queries_{0};
  std::atomic<uint64_t> subqueries_{0};
  std::atomic<uint64_t> shards_pruned_{0};
  std::atomic<uint64_t> merge_rows_{0};
  std::atomic<uint64_t> stragglers_{0};
  std::atomic<uint64_t> partial_results_{0};
};

}  // namespace dist
}  // namespace nimble

#endif  // NIMBLE_DIST_COORDINATOR_H_
