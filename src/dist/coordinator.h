#ifndef NIMBLE_DIST_COORDINATOR_H_
#define NIMBLE_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
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
};

/// Monitor-facing counter snapshot.
struct CoordinatorCounters {
  uint64_t scatter_queries = 0;   ///< queries with a branch scattered.
  uint64_t fallback_queries = 0;  ///< queries run whole on the local engine.
  uint64_t subqueries = 0;        ///< per-shard subplans dispatched.
  uint64_t shards_pruned = 0;     ///< shard subplans skipped by pruning.
  uint64_t merge_rows = 0;        ///< rows gathered from the shards.
  uint64_t stragglers = 0;        ///< shard subplans past their deadline.
  uint64_t partial_results = 0;   ///< scattered queries answered incomplete.
};

/// The scatter-gather coordinator (DESIGN.md §2i). It compiles a query
/// through its local engine and scatters each UNION branch that is a
/// single pattern over a sharded collection, pruning shards that cannot
/// hold matching rows. Each target shard gets the query text and a branch
/// index and answers with the bindings of that branch's pattern (fetch,
/// match, local conditions). The coordinator waits for them under the
/// straggler budget, degrades shards that fail, concatenates each branch's
/// answers in an order that depends only on the rows (so the answer is the
/// same on any shard count), and hands the program and the gathered
/// bindings to its local engine, which runs every branch —
/// scattered ones from their gathered rows, the rest (joins, view
/// sources, unsharded collections) from the global catalog — through the
/// plan every local query uses.
///
/// ExecuteText is safe to call from many threads at once.
class Coordinator {
 public:
  /// `cluster` must be Init()ed and must outlive the coordinator. The
  /// local engine is built over the cluster's global catalog with
  /// `local_engine_options` (its availability policy is also the default
  /// policy for straggler degradation).
  explicit Coordinator(ShardCluster* cluster, DistOptions options = {},
                       core::EngineOptions local_engine_options = {});

  Result<core::QueryResult> ExecuteText(
      std::string_view xmlql_text, const core::QueryOptions& query_options = {});

  CoordinatorCounters counters() const;
  ShardCluster* cluster() { return cluster_; }
  /// The engine that runs every query's plan. Called directly it never
  /// scatters: it answers from the unsharded collections (the oracle the
  /// tests and benchmarks compare against).
  core::IntegrationEngine* local_engine() { return &local_; }
  const DistOptions& options() const { return options_; }

 private:
  struct Scatter;

  /// Where branch `query` scatters (target shards after pruning, EXPLAIN
  /// detail); nullopt when it runs on the local engine.
  std::optional<Scatter> PlanScatter(const xmlql::Query& query) const;

  /// Dispatches every scattered branch to its shards, waits on the calling
  /// thread, degrades failed shards, and returns one entry per branch (set
  /// for scattered branches) for IntegrationEngine::Execute.
  Result<std::vector<std::optional<core::GatheredFragment>>> ScatterAndWait(
      std::string_view xmlql_text, const core::CompiledProgram& compiled,
      const std::vector<std::optional<Scatter>>& scatters,
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
