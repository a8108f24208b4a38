#include "dist/merge.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algebra/construct.h"
#include "algebra/verifier.h"
#include "xml/serializer.h"
#include "xml/value.h"

namespace nimble {
namespace dist {
namespace {

/// One instantiated result row on its way through the canonical sort.
struct MergeItem {
  /// ORDER BY key values, in spec order (empty when the query has none).
  std::vector<Value> keys;
  /// Canonical ToXml of `node` — the total-order tiebreak that makes the
  /// gathered output byte-deterministic regardless of shard count. Ties on
  /// identical bytes are genuinely interchangeable rows.
  std::string bytes;
  NodePtr node;
};

/// Total order over MergeItems: ORDER BY keys first (Value::Compare, each
/// possibly descending), canonical bytes ascending as the tiebreak.
class MergeComparator {
 public:
  explicit MergeComparator(std::vector<bool> descending)
      : descending_(std::move(descending)) {}

  bool Less(const MergeItem& a, const MergeItem& b) const {
    for (size_t i = 0; i < a.keys.size(); ++i) {
      int cmp = a.keys[i].Compare(b.keys[i]);
      if (cmp != 0) return descending_[i] ? cmp > 0 : cmp < 0;
    }
    return a.bytes < b.bytes;
  }

 private:
  std::vector<bool> descending_;
};

}  // namespace

Result<GatherStats> Gather(const xmlql::Query& query,
                           algebra::TupleSchema schema,
                           algebra::TupleBatch rows, bool verify,
                           algebra::CancelProbe cancel, Node* out) {
  std::unique_ptr<algebra::Operator> plan =
      std::make_unique<algebra::MaterializedScan>(std::move(schema),
                                                  std::move(rows), "gather");
  if (query.IsAggregation()) {
    NIMBLE_ASSIGN_OR_RETURN(
        std::vector<algebra::HashAggregate::Spec> specs,
        algebra::AggregateSpecs(*query.construct, plan->schema()));
    plan = std::make_unique<algebra::HashAggregate>(
        std::move(plan), query.group_by, std::move(specs));
  }
  std::vector<size_t> key_slots;
  std::vector<bool> descending;
  for (const xmlql::OrderSpec& spec : query.order_by) {
    std::optional<size_t> slot = plan->schema().SlotOf(spec.variable);
    if (!slot.has_value()) {
      return Status::InvalidArgument("ORDER BY variable $" + spec.variable +
                                     " not bound");
    }
    key_slots.push_back(*slot);
    descending.push_back(spec.descending);
  }
  plan->SetCancelProbe(std::move(cancel));
  if (verify) {
    NIMBLE_RETURN_IF_ERROR(algebra::VerifyPlan(*plan));
    NIMBLE_RETURN_IF_ERROR(algebra::VerifyPlanProducesVariables(
        *plan, algebra::ConstructInputs(query)));
  }

  std::vector<MergeItem> items;
  NIMBLE_RETURN_IF_ERROR(plan->Open());
  while (true) {
    NIMBLE_ASSIGN_OR_RETURN(std::optional<algebra::TupleBatch> batch,
                            plan->NextBatch());
    if (!batch.has_value()) break;
    NodePtr holder = Node::Element("results");
    NIMBLE_RETURN_IF_ERROR(algebra::InstantiateBatch(
        *query.construct, plan->schema(), *batch, holder.get()));
    std::vector<NodePtr> instances = holder->TakeChildren();
    for (size_t i = 0; i < instances.size(); ++i) {
      MergeItem item;
      item.keys.reserve(key_slots.size());
      for (size_t slot : key_slots) {
        item.keys.push_back(batch->binding(slot, i).AsScalar());
      }
      item.bytes = ToXml(*instances[i]);
      item.node = std::move(instances[i]);
      items.push_back(std::move(item));
    }
  }
  plan->Close();

  MergeComparator cmp(std::move(descending));
  std::sort(items.begin(), items.end(),
            [&cmp](const MergeItem& a, const MergeItem& b) {
              return cmp.Less(a, b);
            });
  GatherStats stats;
  stats.merge_rows = items.size();
  if (query.limit >= 0 && items.size() > static_cast<size_t>(query.limit)) {
    items.resize(static_cast<size_t>(query.limit));
  }
  for (MergeItem& item : items) out->AddChild(std::move(item.node));
  stats.plan = plan->Describe(1);
  stats.plan_with_stats = plan->DescribeWithStats(1);
  return stats;
}

}  // namespace dist
}  // namespace nimble
