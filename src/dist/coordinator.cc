#include "dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "algebra/construct.h"
#include "algebra/tuple.h"
#include "dist/merge.h"

namespace nimble {
namespace dist {
namespace {

using xmlql::Condition;
using xmlql::ElementPattern;
using xmlql::TemplateNode;

/// Slice width for the responsive gather wait: small enough that a cancelled
/// query returns within a few milliseconds, large enough that the poll loop
/// is not a busy-wait.
constexpr int64_t kGatherSliceMicros = 2000;

/// Cancellation poll for the shard gather path. A null flag never cancels.
Status CheckCancelled(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled during shard gather");
  }
  return Status::OK();
}

bool PatternHasElementVariable(const ElementPattern& pattern) {
  if (!pattern.element_variable.empty()) return true;
  for (const std::unique_ptr<ElementPattern>& child : pattern.children) {
    if (PatternHasElementVariable(*child)) return true;
  }
  return false;
}

Condition::Op FlipOp(Condition::Op op) {
  switch (op) {
    case Condition::Op::kLt:
      return Condition::Op::kGt;
    case Condition::Op::kLe:
      return Condition::Op::kGe;
    case Condition::Op::kGt:
      return Condition::Op::kLt;
    case Condition::Op::kGe:
      return Condition::Op::kLe;
    default:
      return op;
  }
}

/// The record-level patterns of a branch, shape-resolved the same way the
/// statistics mapper reads them (opt::VariableColumns): a descendant-axis
/// root matches the records itself; otherwise the root matches the
/// collection root and its children match records.
std::vector<const ElementPattern*> RecordPatterns(const ElementPattern& root) {
  std::vector<const ElementPattern*> records;
  if (root.descendant) {
    records.push_back(&root);
    return records;
  }
  for (const std::unique_ptr<ElementPattern>& child : root.children) {
    if (child != nullptr) records.push_back(child.get());
  }
  return records;
}

void AddUnique(std::vector<std::string>* list, const std::string& value) {
  if (std::find(list->begin(), list->end(), value) == list->end()) {
    list->push_back(value);
  }
}

int64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

struct Coordinator::BranchPlan {
  const xmlql::Query* query = nullptr;
  /// The branch's single pattern, as the local engine fragments it.
  const core::Fragment* fragment = nullptr;
  const metadata::FragmentMap* map = nullptr;
  std::string source_name;
  std::string source_label;  ///< "source:collection".
  std::vector<size_t> target_shards;
  size_t pruned = 0;
  double est_rows = -1.0;
};

Coordinator::Coordinator(ShardCluster* cluster, DistOptions options,
                         core::EngineOptions local_engine_options)
    : cluster_(cluster),
      options_(options),
      local_(cluster->catalog(), local_engine_options) {}

CoordinatorCounters Coordinator::counters() const {
  CoordinatorCounters out;
  out.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  out.fallback_queries = fallback_queries_.load(std::memory_order_relaxed);
  out.subqueries = subqueries_.load(std::memory_order_relaxed);
  out.shards_pruned = shards_pruned_.load(std::memory_order_relaxed);
  out.merge_rows = merge_rows_.load(std::memory_order_relaxed);
  out.stragglers = stragglers_.load(std::memory_order_relaxed);
  out.partial_results = partial_results_.load(std::memory_order_relaxed);
  return out;
}

bool Coordinator::PlanBranch(const xmlql::Query& query,
                             const core::Fragmentation& fragmentation,
                             BranchPlan* plan, std::string* reason) const {
  plan->query = &query;
  if (query.patterns.size() != 1) {
    *reason = "multi-pattern join";
    return false;
  }
  plan->fragment = &fragmentation.fragments[0];
  const xmlql::SourceRef& ref = query.patterns[0].source;
  if (ref.is_view()) {
    *reason = "mediated-view source";
    return false;
  }
  const metadata::FragmentMap* map =
      cluster_->catalog()->fragment_map(ref.source, ref.collection);
  if (map == nullptr) {
    *reason = "collection is not sharded";
    return false;
  }
  plan->map = map;
  plan->source_name = ref.source;
  plan->source_label = ref.ToString();

  std::shared_ptr<const metadata::CollectionStats> stats =
      cluster_->catalog()->statistics().Get(ref.source, ref.collection);
  plan->est_rows = stats != nullptr ? stats->row_count : -1.0;
  if (options_.min_scatter_rows > 0 && plan->est_rows >= 0 &&
      plan->est_rows < options_.min_scatter_rows) {
    *reason = "below min_scatter_rows";
    return false;
  }

  if (query.construct == nullptr ||
      query.construct->kind != TemplateNode::Kind::kElement) {
    *reason = "non-element construct root";
    return false;
  }

  if (query.IsAggregation()) {
    if (PatternHasElementVariable(query.patterns[0].root)) {
      *reason = "ELEMENT_AS binding in aggregation";
      return false;
    }
    std::set<std::string> seen_groups;
    for (const std::string& var : query.group_by) {
      if (!seen_groups.insert(var).second) {
        *reason = "duplicate GROUP BY variable";
        return false;
      }
    }
    for (const xmlql::OrderSpec& spec : query.order_by) {
      if (seen_groups.count(spec.variable) == 0) {
        *reason = "ORDER BY variable is not a grouping key";
        return false;
      }
    }
    std::vector<std::pair<xmlql::AggregateFn, std::string>> aggregates;
    query.construct->CollectAggregates(&aggregates);
    for (const auto& [fn, var] : aggregates) {
      if (!seen_groups.insert(algebra::AggregateOutputName(fn, var)).second) {
        *reason = "aggregate output name collides with a grouping key";
        return false;
      }
    }
  }

  // --- Shard pruning from the partition key -------------------------------
  std::vector<size_t> targets = plan->map->AllFragments();
  auto intersect = [&targets](const std::vector<size_t>& keep) {
    std::set<size_t> allowed(keep.begin(), keep.end());
    std::vector<size_t> next;
    for (size_t shard : targets) {
      if (allowed.count(shard) > 0) next.push_back(shard);
    }
    targets = std::move(next);
  };

  std::vector<const ElementPattern*> records =
      RecordPatterns(query.patterns[0].root);
  // Variable → statistics-column map over the shape-resolved records. This
  // (like PartitionKeyOf) assumes the partition-key field appears at most
  // once per record — the flat record shape Analyze() collects.
  std::map<std::string, std::string> var_columns;
  for (const ElementPattern* record : records) {
    for (const xmlql::AttrPattern& attr : record->attributes) {
      if (attr.is_variable && !attr.variable.empty()) {
        var_columns.emplace(attr.variable, "@" + attr.name);
      }
    }
    for (const std::unique_ptr<ElementPattern>& column : record->children) {
      if (column != nullptr && !column->content_variable.empty() &&
          column->tag != "*") {
        var_columns.emplace(column->content_variable, column->tag);
      }
    }
  }
  // Literal constraints inside the pattern prune like equality conditions.
  for (const ElementPattern* record : records) {
    for (const xmlql::AttrPattern& attr : record->attributes) {
      if (!attr.is_variable && "@" + attr.name == plan->map->partition_key) {
        intersect(plan->map->FragmentsForCondition(Condition::Op::kEq,
                                                   attr.literal));
      }
    }
    for (const std::unique_ptr<ElementPattern>& column : record->children) {
      if (column != nullptr && column->content_literal.has_value() &&
          column->tag == plan->map->partition_key) {
        intersect(plan->map->FragmentsForCondition(Condition::Op::kEq,
                                                   *column->content_literal));
      }
    }
  }
  for (const Condition& condition : query.conditions) {
    const Condition::Operand* var_side = nullptr;
    const Value* literal = nullptr;
    Condition::Op op = condition.op;
    if (condition.lhs.is_variable && !condition.rhs.is_variable) {
      var_side = &condition.lhs;
      literal = &condition.rhs.literal;
    } else if (condition.rhs.is_variable && !condition.lhs.is_variable) {
      var_side = &condition.rhs;
      literal = &condition.lhs.literal;
      op = FlipOp(op);
    } else {
      continue;
    }
    auto it = var_columns.find(var_side->variable);
    if (it == var_columns.end() || it->second != plan->map->partition_key) {
      continue;
    }
    intersect(plan->map->FragmentsForCondition(op, *literal));
  }

  plan->target_shards = std::move(targets);
  plan->pruned = plan->map->num_fragments - plan->target_shards.size();
  return true;
}

Result<core::QueryResult> Coordinator::ExecuteText(
    std::string_view xmlql_text, const core::QueryOptions& query_options) {
  NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const core::CompiledProgram> compiled,
                          local_.GetOrCompile(xmlql_text));
  const std::vector<xmlql::Query>& branches = compiled->program.branches;
  std::vector<BranchPlan> plans(branches.size());
  for (size_t b = 0; b < branches.size(); ++b) {
    std::string reason;
    if (!PlanBranch(branches[b], compiled->fragmentations[b], &plans[b],
                    &reason)) {
      fallback_queries_.fetch_add(1, std::memory_order_relaxed);
      return local_.ExecuteText(xmlql_text, query_options);
    }
  }
  scatter_queries_.fetch_add(1, std::memory_order_relaxed);
  return ExecuteScattered(xmlql_text, std::move(plans), query_options);
}

Result<core::QueryResult> Coordinator::ExecuteScattered(
    std::string_view xmlql_text, std::vector<BranchPlan> plans,
    const core::QueryOptions& query_options) {
  const core::AvailabilityPolicy policy = query_options.availability.value_or(
      local_.options().availability);
  core::QueryOptions shard_options = query_options;
  shard_options.availability = policy;

  struct ShardRun {
    size_t shard = 0;
    core::QueryHandlePtr handle;
    const Result<core::QueryResult>* outcome = nullptr;  ///< null: straggler.
    bool degraded = false;
  };
  std::vector<std::vector<ShardRun>> runs(plans.size());
  size_t dispatched = 0;
  for (size_t b = 0; b < plans.size(); ++b) {
    for (size_t shard : plans[b].target_shards) {
      ShardRun run;
      run.shard = shard;
      run.handle = cluster_->shard_engine(shard)->SubmitBindings(
          std::string(xmlql_text), b, shard_options);
      runs[b].push_back(std::move(run));
      ++dispatched;
    }
    shards_pruned_.fetch_add(plans[b].pruned, std::memory_order_relaxed);
  }
  subqueries_.fetch_add(dispatched, std::memory_order_relaxed);

  auto cancel_all = [&runs]() {
    for (std::vector<ShardRun>& branch_runs : runs) {
      for (ShardRun& run : branch_runs) run.handle->Cancel();
    }
  };
  const std::atomic<bool>* cancel = query_options.cancel;

  // --- Gather: wait (bounded when a straggler budget is set) --------------
  const int64_t budget = options_.straggler_wait_micros;
  const auto gather_start = std::chrono::steady_clock::now();
  core::QueryResult out;
  out.document = Node::Element("results");
  core::ExecutionReport& report = out.report;
  size_t total_merge_rows = 0;

  for (size_t b = 0; b < plans.size(); ++b) {
    const BranchPlan& plan = plans[b];
    for (ShardRun& run : runs[b]) {
      // Wait in bounded slices, polling the caller's cancel flag between
      // slices, so a cancelled scatter-gather abandons the remaining shards
      // within ~kGatherSliceMicros instead of blocking until they finish.
      while (run.outcome == nullptr) {
        Status cancelled = CheckCancelled(cancel);
        if (!cancelled.ok()) {
          cancel_all();
          return cancelled;
        }
        if (budget > 0) {
          const int64_t remaining = budget - ElapsedMicros(gather_start);
          if (remaining <= 0) break;  // Straggler: outcome stays null.
          run.outcome =
              run.handle->WaitFor(std::min(kGatherSliceMicros, remaining));
        } else if (cancel == nullptr) {
          // No flag to poll: a plain blocking wait always produces an
          // outcome, so this loop runs exactly once.
          run.outcome = &run.handle->Wait();
        } else {
          run.outcome = run.handle->WaitFor(kGatherSliceMicros);
        }
      }
      const bool straggler = run.outcome == nullptr;
      const bool failed = !straggler && !run.outcome->ok();
      if (!straggler && !failed) continue;

      if (straggler) {
        run.handle->Cancel();
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      } else if (run.outcome->status().code() == StatusCode::kTimeout) {
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      }
      const Status status =
          straggler ? Status::Timeout(
                          "shard " + std::to_string(run.shard) + " of " +
                          plan.source_label + " exceeded the straggler budget")
                    : run.outcome->status();
      if (policy == core::AvailabilityPolicy::kFailFast ||
          !core::DegradableCode(status.code())) {
        cancel_all();
        return status;
      }
      // Required sources fail the query under any policy (paper §3.4).
      for (const std::string& required : query_options.required_sources) {
        if (required == plan.source_name) {
          cancel_all();
          return Status::Unavailable("required source '" + required +
                                     "' is unavailable");
        }
      }
      run.degraded = true;
      report.completeness.complete = false;
      AddUnique(&report.completeness.unavailable_sources,
                plan.source_label + "#shard" + std::to_string(run.shard));
    }
  }

  // --- Gather each branch's shard bindings --------------------------------
  const algebra::CancelProbe cancel_probe = [cancel] {
    return CheckCancelled(cancel);
  };
  std::string plan_text, plan_stats_text;
  for (size_t b = 0; b < plans.size(); ++b) {
    const BranchPlan& plan = plans[b];

    std::string shard_list;
    for (size_t i = 0; i < plan.target_shards.size(); ++i) {
      if (i > 0) shard_list += ",";
      shard_list += std::to_string(plan.target_shards[i]);
    }
    const std::string scatter_header =
        (plans.size() > 1 ? "-- branch " + std::to_string(b) + " --\n" : "") +
        "scatter: " + plan.source_label + " shards=[" + shard_list + "] of " +
        std::to_string(plan.map->num_fragments) +
        " pruned=" + std::to_string(plan.pruned) + " key=" +
        plan.map->partition_key + " (" +
        metadata::FragmentMap::KindName(plan.map->kind) + ") est_cost=" +
        std::to_string(cost_model_.ScatterGatherCost(
            std::max(plan.est_rows, 0.0), plan.target_shards.size(),
            std::max(plan.est_rows, 0.0))) +
        "\n";
    plan_text += scatter_header;
    plan_stats_text += scatter_header;

    // Concatenate the answering shards' bindings into the gather's input.
    const algebra::TupleSchema& schema = plan.fragment->schema;
    algebra::TupleBatch rows(schema.size());
    size_t degraded = 0;
    for (ShardRun& run : runs[b]) {
      const std::string header = "-- shard " + std::to_string(run.shard) +
                                 (run.degraded ? " (degraded) --\n" : " --\n");
      plan_text += header;
      plan_stats_text += header;
      if (run.degraded) {
        ++degraded;
        continue;
      }
      const core::QueryResult& shard_result = **run.outcome;
      const core::ExecutionReport& sr = shard_result.report;
      plan_text += sr.plan;
      plan_stats_text += sr.plan_with_stats;
      report.rows_shipped += sr.rows_shipped;
      report.fragments_pushed_down += sr.fragments_pushed_down;
      report.fragments_fetched += sr.fragments_fetched;
      report.fragments_bind_joined += sr.fragments_bind_joined;
      report.retries += sr.retries;
      report.source_latency_micros =
          std::max(report.source_latency_micros, sr.source_latency_micros);
      report.queue_wait_micros =
          std::max(report.queue_wait_micros, sr.queue_wait_micros);
      for (const std::string& src : sr.sources_contacted) {
        AddUnique(&report.sources_contacted, src);
      }
      // Shard-internal degradation (an unsharded forwarded source was down
      // under kPartial) taints the distributed answer too.
      if (!sr.completeness.complete) {
        report.completeness.complete = false;
        for (const std::string& src : sr.completeness.unavailable_sources) {
          AddUnique(&report.completeness.unavailable_sources, src);
        }
      }
      const std::optional<core::Bindings>& bindings = shard_result.bindings;
      if (!bindings.has_value() || !(bindings->schema == schema)) {
        return Status::Internal("shard " + std::to_string(run.shard) +
                                " answered without the branch's bindings");
      }
      rows.Append(bindings->batch);
    }
    if (!runs[b].empty() && degraded == runs[b].size()) {
      report.completeness.skipped_branches.push_back(b);
    }

    NIMBLE_ASSIGN_OR_RETURN(
        GatherStats gathered,
        Gather(*plan.query, schema, std::move(rows),
               local_.options().verify_plans, cancel_probe,
               out.document.get()));
    total_merge_rows += gathered.merge_rows;
    const std::string gather_line =
        "gather: merge rows=" + std::to_string(gathered.merge_rows) +
        " order_by=" + std::to_string(plan.query->order_by.size()) +
        " limit=" + std::to_string(plan.query->limit) + "\n";
    plan_text += gather_line + gathered.plan;
    plan_stats_text += gather_line + gathered.plan_with_stats;
  }

  merge_rows_.fetch_add(total_merge_rows, std::memory_order_relaxed);
  report.plan = std::move(plan_text);
  report.plan_with_stats = std::move(plan_stats_text);
  report.result_count = out.document->children().size();
  report.completeness.StampOn(out.document.get());
  if (!report.completeness.complete) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

}  // namespace dist
}  // namespace nimble
