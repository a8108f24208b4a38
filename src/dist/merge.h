#ifndef NIMBLE_DIST_MERGE_H_
#define NIMBLE_DIST_MERGE_H_

#include <cstddef>
#include <string>

#include "algebra/operators.h"
#include "algebra/tuple.h"
#include "common/result.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace dist {

/// What one branch's gather did, for EXPLAIN and the monitor.
struct GatherStats {
  size_t merge_rows = 0;  ///< rows through the canonical sort (pre-LIMIT).
  std::string plan;       ///< the gather's operator plan, indented one level.
  std::string plan_with_stats;
};

/// The gather half of one scattered branch (DESIGN.md §2i). `rows` holds
/// every answering shard's bindings for the branch's single pattern,
/// concatenated under `schema`. The gather runs the same HashAggregate the
/// local engine builds (for aggregations), instantiates CONSTRUCT per row,
/// puts the instances in canonical order — ORDER BY keys first, then their
/// canonical ToXml bytes, so the answer is byte-identical whatever the
/// shard count — applies LIMIT last and appends the survivors to `out`.
/// `verify` runs the plan verifier (I1–I13, including I10 against the
/// template) before the drain; `cancel` is polled between batches.
Result<GatherStats> Gather(const xmlql::Query& query,
                           algebra::TupleSchema schema,
                           algebra::TupleBatch rows, bool verify,
                           algebra::CancelProbe cancel, Node* out);

}  // namespace dist
}  // namespace nimble

#endif  // NIMBLE_DIST_MERGE_H_
