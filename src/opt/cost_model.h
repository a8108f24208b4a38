#ifndef NIMBLE_OPT_COST_MODEL_H_
#define NIMBLE_OPT_COST_MODEL_H_

#include <algorithm>
#include <cstddef>

namespace nimble {
namespace opt {

/// Abstract per-row execution costs for the physical operators the engine
/// can choose between. Units are arbitrary "row touches"; only ratios
/// matter. The constants mirror the executors: a hash-join build row costs
/// more than a probe row (hashing + chain insertion), a nested-loop join
/// touches the full cross product, and a bind join pays per shipped IN-list
/// key on top of the remote scan it prunes.
struct CostModel {
  double hash_build_cost = 2.0;   ///< per build-side row.
  double hash_probe_cost = 1.0;   ///< per probe-side row.
  double output_cost = 1.0;       ///< per emitted row (any join).
  double nested_loop_cost = 1.0;  ///< per (left, right) pair compared.
  /// A bind join stops paying for itself when the IN-list already covers
  /// most of the remote column's distinct values: the list prunes almost
  /// nothing but still costs translation, shipping and remote filtering.
  double bind_join_max_coverage = 0.8;
  /// Per-key cost of one secondary-index probe (hash lookup + row fetch).
  double index_probe_cost = 4.0;
  /// Per-row cost of a full collection scan (the alternative an index
  /// nested-loop join avoids).
  double scan_cost = 1.0;
  /// Fixed per-shard overhead of a scatter: the shard's compile (a plan
  /// cache hit when warm), dispatch through the pool, and the gather-side
  /// bookkeeping. In "row touches" so it trades off directly against the
  /// per-row work it parallelizes.
  double scatter_overhead_per_shard = 50.0;
  /// Per-row cost of the gather (concatenation + canonical-order sort).
  double merge_cost_per_row = 1.0;

  /// Cost of hash-joining the pair, given the chosen build side.
  double HashJoinCost(double build_rows, double probe_rows,
                      double output_rows) const {
    return hash_build_cost * std::max(build_rows, 0.0) +
           hash_probe_cost * std::max(probe_rows, 0.0) +
           output_cost * std::max(output_rows, 0.0);
  }

  /// Cost of a nested-loop (cross-product) join of the pair.
  double NestedLoopJoinCost(double left_rows, double right_rows,
                            double output_rows) const {
    return nested_loop_cost * std::max(left_rows, 0.0) *
               std::max(right_rows, 0.0) +
           output_cost * std::max(output_rows, 0.0);
  }

  /// Build side for a hash join: build on the smaller input. Ties keep the
  /// executor's historical default (build right), so plans only change when
  /// the estimates actually order the inputs.
  bool BuildLeft(double left_rows, double right_rows) const {
    return left_rows < right_rows;
  }

  /// Whether shipping `num_keys` IN-list keys against a remote column with
  /// `column_ndv` distinct values is worth it (per-source pushdown depth).
  /// Unknown NDV (< 0) keeps the historical always-bind behavior.
  bool UseBindJoin(size_t num_keys, double column_ndv) const {
    if (column_ndv < 1.0) return true;
    return static_cast<double>(num_keys) <=
           bind_join_max_coverage * column_ndv;
  }

  /// Cost of an index nested-loop join: one index probe per IN-list key.
  double IndexNestedLoopCost(size_t num_keys) const {
    return index_probe_cost * static_cast<double>(num_keys);
  }

  /// Whether probing a secondary index once per IN-list key beats scanning
  /// the whole table. Without an index (or with unknown table size) the
  /// answer is no — the caller falls back to the coverage-gated bind join.
  /// This can rescue an IN-list the coverage gate rejected: covering 100% of
  /// a 1M-row table with 1k index probes is still 250x cheaper than the
  /// scan the coverage gate would otherwise force.
  bool UseIndexNestedLoop(size_t num_keys, double table_rows,
                          bool has_index) const {
    if (!has_index || table_rows < 1.0) return false;
    return IndexNestedLoopCost(num_keys) < scan_cost * table_rows;
  }

  /// Total cost of scatter-gathering `total_rows` across `num_shards`
  /// engines that each scan their fragment in parallel, then merging
  /// `merged_rows` at the coordinator. Used by EXPLAIN to annotate the
  /// fan-out decision; per-shard work divides because shards run
  /// concurrently.
  double ScatterGatherCost(double total_rows, size_t num_shards,
                           double merged_rows) const {
    const double shards = static_cast<double>(std::max<size_t>(num_shards, 1));
    return scatter_overhead_per_shard * shards +
           scan_cost * std::max(total_rows, 0.0) / shards +
           merge_cost_per_row * std::max(merged_rows, 0.0);
  }
};

}  // namespace opt
}  // namespace nimble

#endif  // NIMBLE_OPT_COST_MODEL_H_
