#include "opt/optimizer.h"

#include <algorithm>

#include "opt/cardinality.h"

namespace nimble {
namespace opt {

namespace {

struct PlanEntry {
  std::unique_ptr<algebra::Operator> op;
  /// Legacy: materialized size. Cost-based: estimated output rows.
  double size_estimate = 0.0;
  std::map<std::string, double> var_ndv;
};

bool SharesVariable(const algebra::Operator& a, const algebra::Operator& b) {
  for (const std::string& var : a.schema().variables()) {
    if (b.schema().SlotOf(var).has_value()) return true;
  }
  return false;
}

std::vector<std::string> SharedVariables(const algebra::Operator& a,
                                         const algebra::Operator& b) {
  std::vector<std::string> shared;
  for (const std::string& var : a.schema().variables()) {
    if (b.schema().SlotOf(var).has_value()) shared.push_back(var);
  }
  return shared;
}

double NdvOrRows(const PlanEntry& e, const std::string& var) {
  auto it = e.var_ndv.find(var);
  // A variable with no distinct estimate is assumed all-distinct — the
  // conservative choice (smallest join selectivity it can justify).
  return it != e.var_ndv.end() ? it->second : std::max(e.size_estimate, 1.0);
}

/// Estimated output of hash-joining the pair on their shared variables.
double EstimateJoinOutput(const PlanEntry& l, const PlanEntry& r,
                          const std::vector<std::string>& shared) {
  double out = std::max(l.size_estimate, 0.0) * std::max(r.size_estimate, 0.0);
  for (const std::string& var : shared) {
    out *= JoinSelectivity(NdvOrRows(l, var), NdvOrRows(r, var));
  }
  return out;
}

/// Selectivity of one cross-fragment condition over the joined entry,
/// using per-variable NDV for equality and the defaults otherwise.
double CrossConditionSelectivity(const xmlql::Condition& cond,
                                 const std::map<std::string, double>& ndv) {
  using Op = xmlql::Condition::Op;
  switch (cond.op) {
    case Op::kEq: {
      double best = -1.0;
      for (const std::string& var : cond.Variables()) {
        auto it = ndv.find(var);
        if (it != ndv.end()) best = std::max(best, it->second);
      }
      if (best >= 1.0) return std::min(1.0, 1.0 / best);
      return kDefaultEqSelectivity;
    }
    case Op::kNe:
      return kDefaultNeSelectivity;
    case Op::kLike:
      return kDefaultLikeSelectivity;
    default:
      return kDefaultRangeSelectivity;
  }
}

/// Merged per-variable NDV after a join: a shared key keeps the smaller
/// domain (containment); every NDV is capped by the output row count.
std::map<std::string, double> MergeNdv(const PlanEntry& l, const PlanEntry& r,
                                       double out_rows) {
  std::map<std::string, double> merged = l.var_ndv;
  for (const auto& [var, ndv] : r.var_ndv) {
    auto it = merged.find(var);
    if (it == merged.end()) {
      merged[var] = ndv;
    } else {
      it->second = std::min(it->second, ndv);
    }
  }
  double cap = std::max(out_rows, 1.0);
  for (auto& [var, ndv] : merged) ndv = std::min(ndv, cap);
  return merged;
}

/// Binds the cross conditions that the joined schema now covers; the rest
/// stay pending. Shared by both modes so the Filter placement (and thus
/// result) is identical.
Result<std::unique_ptr<algebra::Operator>> AttachReadyConditions(
    std::unique_ptr<algebra::Operator> joined,
    std::vector<const xmlql::Condition*>* pending,
    std::vector<const xmlql::Condition*>* newly_attached) {
  std::vector<const xmlql::Condition*> ready;
  std::vector<const xmlql::Condition*> still_pending;
  for (const xmlql::Condition* cond : *pending) {
    bool covered = true;
    for (const std::string& var : cond->Variables()) {
      if (!joined->schema().SlotOf(var).has_value()) {
        covered = false;
        break;
      }
    }
    (covered ? ready : still_pending).push_back(cond);
  }
  *pending = std::move(still_pending);
  if (ready.empty()) return joined;
  NIMBLE_ASSIGN_OR_RETURN(std::vector<algebra::BoundExpr> bound,
                          algebra::BindConditions(ready, joined->schema()));
  if (newly_attached != nullptr) *newly_attached = ready;
  return std::unique_ptr<algebra::Operator>(
      std::make_unique<algebra::Filter>(std::move(joined), std::move(bound)));
}

/// The pre-optimizer heuristic, preserved verbatim as the ablation arm:
/// prefer pairs sharing a variable, tie-break on the smallest product of
/// materialized sizes; hash joins always build right; no annotations.
Result<JoinTreeResult> BuildLegacy(
    std::vector<PlanEntry> entries,
    std::vector<const xmlql::Condition*> pending) {
  while (entries.size() > 1) {
    size_t best_i = 0, best_j = 1;
    bool best_shared = false;
    double best_cost = 0;
    bool found = false;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        bool shared = SharesVariable(*entries[i].op, *entries[j].op);
        double cost = entries[i].size_estimate * entries[j].size_estimate;
        bool better = !found || (shared && !best_shared) ||
                      (shared == best_shared && cost < best_cost);
        if (better) {
          best_i = i;
          best_j = j;
          best_shared = shared;
          best_cost = cost;
          found = true;
        }
      }
    }

    PlanEntry left = std::move(entries[best_i]);
    PlanEntry right = std::move(entries[best_j]);
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best_j));
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best_i));

    PlanEntry joined;
    if (best_shared) {
      joined.op = std::make_unique<algebra::HashJoin>(std::move(left.op),
                                                      std::move(right.op));
      joined.size_estimate = std::max(left.size_estimate, right.size_estimate);
    } else {
      joined.op = std::make_unique<algebra::NestedLoopJoin>(
          std::move(left.op), std::move(right.op));
      joined.size_estimate = left.size_estimate * right.size_estimate;
    }
    NIMBLE_ASSIGN_OR_RETURN(
        joined.op,
        AttachReadyConditions(std::move(joined.op), &pending, nullptr));
    entries.push_back(std::move(joined));
  }

  JoinTreeResult result;
  result.root = std::move(entries[0].op);
  if (!pending.empty()) {
    NIMBLE_ASSIGN_OR_RETURN(
        std::vector<algebra::BoundExpr> bound,
        algebra::BindConditions(pending, result.root->schema()));
    result.root = std::make_unique<algebra::Filter>(std::move(result.root),
                                                    std::move(bound));
  }
  result.est_rows = -1.0;
  return result;
}

Result<JoinTreeResult> BuildCostBased(
    std::vector<PlanEntry> entries,
    std::vector<const xmlql::Condition*> pending, const CostModel& model) {
  while (entries.size() > 1) {
    // Greedy smallest-intermediate-first: among variable-sharing pairs
    // (hash-joinable — required for correctness when a variable repeats),
    // minimize estimated execution cost plus estimated output. Cross
    // products are a last resort, costed the same way.
    size_t best_i = 0, best_j = 1;
    bool best_shared = false;
    double best_score = 0;
    double best_out = 0;
    bool found = false;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        const PlanEntry& l = entries[i];
        const PlanEntry& r = entries[j];
        std::vector<std::string> shared = SharedVariables(*l.op, *r.op);
        double out, score;
        if (!shared.empty()) {
          out = EstimateJoinOutput(l, r, shared);
          double build = std::min(l.size_estimate, r.size_estimate);
          double probe = std::max(l.size_estimate, r.size_estimate);
          score = model.HashJoinCost(build, probe, out) + out;
        } else {
          out = std::max(l.size_estimate, 0.0) * std::max(r.size_estimate, 0.0);
          score = model.NestedLoopJoinCost(l.size_estimate, r.size_estimate,
                                           out) +
                  out;
        }
        bool better = !found || (!shared.empty() && !best_shared) ||
                      (!shared.empty() == best_shared && score < best_score);
        if (better) {
          best_i = i;
          best_j = j;
          best_shared = !shared.empty();
          best_score = score;
          best_out = out;
          found = true;
        }
      }
    }

    PlanEntry left = std::move(entries[best_i]);
    PlanEntry right = std::move(entries[best_j]);
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best_j));
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best_i));

    PlanEntry joined;
    joined.size_estimate = best_out;
    joined.var_ndv = MergeNdv(left, right, best_out);
    if (best_shared) {
      bool build_left =
          model.BuildLeft(left.size_estimate, right.size_estimate);
      joined.op = std::make_unique<algebra::HashJoin>(
          std::move(left.op), std::move(right.op), build_left);
    } else {
      joined.op = std::make_unique<algebra::NestedLoopJoin>(
          std::move(left.op), std::move(right.op));
    }
    joined.op->set_estimated_rows(joined.size_estimate);

    std::vector<const xmlql::Condition*> attached;
    NIMBLE_ASSIGN_OR_RETURN(
        joined.op,
        AttachReadyConditions(std::move(joined.op), &pending, &attached));
    for (const xmlql::Condition* cond : attached) {
      joined.size_estimate *= CrossConditionSelectivity(*cond, joined.var_ndv);
    }
    if (!attached.empty()) {
      joined.op->set_estimated_rows(joined.size_estimate);
      double cap = std::max(joined.size_estimate, 1.0);
      for (auto& [var, ndv] : joined.var_ndv) ndv = std::min(ndv, cap);
    }
    entries.push_back(std::move(joined));
  }

  JoinTreeResult result;
  double est = entries[0].size_estimate;
  std::map<std::string, double> ndv = std::move(entries[0].var_ndv);
  result.root = std::move(entries[0].op);
  if (!pending.empty()) {
    NIMBLE_ASSIGN_OR_RETURN(
        std::vector<algebra::BoundExpr> bound,
        algebra::BindConditions(pending, result.root->schema()));
    for (const xmlql::Condition* cond : pending) {
      est *= CrossConditionSelectivity(*cond, ndv);
    }
    result.root = std::make_unique<algebra::Filter>(std::move(result.root),
                                                    std::move(bound));
    result.root->set_estimated_rows(est);
  }
  result.est_rows = est;
  return result;
}

}  // namespace

Result<JoinTreeResult> BuildJoinTree(
    std::vector<JoinInput> inputs,
    const std::vector<const xmlql::Condition*>& cross_conditions,
    const CostModel& model, bool cost_based) {
  if (inputs.empty()) {
    return Status::InvalidArgument("query has no patterns");
  }
  std::vector<PlanEntry> entries;
  entries.reserve(inputs.size());
  for (JoinInput& input : inputs) {
    PlanEntry entry;
    if (cost_based) {
      entry.size_estimate =
          input.est_rows >= 0.0 ? input.est_rows : input.actual_rows;
      entry.var_ndv = std::move(input.var_ndv);
      input.op->set_estimated_rows(entry.size_estimate);
    } else {
      entry.size_estimate = input.actual_rows;
    }
    entry.op = std::move(input.op);
    entries.push_back(std::move(entry));
  }
  std::vector<const xmlql::Condition*> pending = cross_conditions;
  return cost_based ? BuildCostBased(std::move(entries), std::move(pending),
                                     model)
                    : BuildLegacy(std::move(entries), std::move(pending));
}

}  // namespace opt
}  // namespace nimble
