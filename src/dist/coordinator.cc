#include "dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "algebra/tuple.h"
#include "xml/serializer.h"

namespace nimble {
namespace dist {
namespace {

using xmlql::Condition;
using xmlql::ElementPattern;

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

/// Orders two bindings whose scalar views compare equal by how they print:
/// a scalar before a node, scalars by type and then as text (equal values
/// of one type print alike, except doubles: -0 and 0, NaNs of either
/// sign), nodes by their serialized bytes.
int ComparePrinted(const algebra::Binding& x, const algebra::Binding& y) {
  if (x.is_node() != y.is_node()) return x.is_node() ? 1 : -1;
  if (x.is_node()) return ToXml(*x.node()).compare(ToXml(*y.node()));
  const Value& u = x.AsScalar();
  const Value& v = y.AsScalar();
  if (u.type() != v.type()) return u.type() < v.type() ? -1 : 1;
  return u.is_double() ? u.ToString().compare(v.ToString()) : 0;
}

/// Concatenates shard answers in one order that depends only on the rows,
/// not on which shard sent them: by a hash of each row's values, then, for
/// colliding hashes, slot by slot by value and by how the bindings print.
/// Rows still tied print identically, so the branch's plan (aggregation,
/// ORDER BY ties, LIMIT, CONSTRUCT) answers alike on any shard count.
/// Hashes make this one streaming pass and a sort of 16-byte entries;
/// comparing bindings instead reads two of them at random per step.
algebra::TupleBatch ConcatCanonical(
    const std::vector<const algebra::TupleBatch*>& parts, size_t num_slots) {
  struct Row {
    uint64_t hash;
    uint32_t part;
    uint32_t index;
  };
  std::vector<Row> rows;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t i = 0; i < parts[p]->size(); ++i) {
      uint64_t hash = 0;
      for (size_t slot = 0; slot < num_slots; ++slot) {
        hash = hash * 0x9E3779B97F4A7C15ULL +
               parts[p]->binding(slot, i).Hash();
      }
      rows.push_back(
          Row{hash, static_cast<uint32_t>(p), static_cast<uint32_t>(i)});
    }
  }
  auto binding = [&parts](const Row& row,
                          size_t slot) -> const algebra::Binding& {
    return parts[row.part]->binding(slot, row.index);
  };
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    for (size_t slot = 0; slot < num_slots; ++slot) {
      const algebra::Binding& x = binding(a, slot);
      const algebra::Binding& y = binding(b, slot);
      int cmp = x.AsScalar().Compare(y.AsScalar());
      if (cmp == 0) cmp = ComparePrinted(x, y);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  algebra::TupleBatch out(num_slots);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    std::vector<algebra::Binding>& column = out.MutableColumn(slot);
    column.reserve(rows.size());
    for (const Row& row : rows) column.push_back(binding(row, slot));
  }
  out.SetNumRows(rows.size());
  return out;
}

}  // namespace

struct Coordinator::Scatter {
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

std::optional<Coordinator::Scatter> Coordinator::PlanScatter(
    const xmlql::Query& query) const {
  if (query.patterns.size() != 1) return std::nullopt;
  const xmlql::SourceRef& ref = query.patterns[0].source;
  if (ref.is_view()) return std::nullopt;
  const metadata::FragmentMap* map =
      cluster_->catalog()->fragment_map(ref.source, ref.collection);
  if (map == nullptr) return std::nullopt;

  Scatter scatter;
  scatter.map = map;
  scatter.source_name = ref.source;
  scatter.source_label = ref.ToString();
  std::shared_ptr<const metadata::CollectionStats> stats =
      cluster_->catalog()->statistics().Get(ref.source, ref.collection);
  scatter.est_rows = stats != nullptr ? stats->row_count : -1.0;

  // --- Shard pruning from the partition key -------------------------------
  std::vector<size_t> targets = map->AllFragments();
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
      if (!attr.is_variable && "@" + attr.name == map->partition_key) {
        intersect(map->FragmentsForCondition(Condition::Op::kEq,
                                             attr.literal));
      }
    }
    for (const std::unique_ptr<ElementPattern>& column : record->children) {
      if (column != nullptr && column->content_literal.has_value() &&
          column->tag == map->partition_key) {
        intersect(map->FragmentsForCondition(Condition::Op::kEq,
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
    if (it == var_columns.end() || it->second != map->partition_key) {
      continue;
    }
    intersect(map->FragmentsForCondition(op, *literal));
  }

  scatter.target_shards = std::move(targets);
  scatter.pruned = map->num_fragments - scatter.target_shards.size();
  return scatter;
}

Result<core::QueryResult> Coordinator::ExecuteText(
    std::string_view xmlql_text, const core::QueryOptions& query_options) {
  NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const core::CompiledProgram> compiled,
                          local_.GetOrCompile(xmlql_text));
  const std::vector<xmlql::Query>& branches = compiled->program.branches;
  std::vector<std::optional<Scatter>> scatters(branches.size());
  bool scattered = false;
  for (size_t b = 0; b < branches.size(); ++b) {
    scatters[b] = PlanScatter(branches[b]);
    scattered = scattered || scatters[b].has_value();
  }
  if (!scattered) {
    fallback_queries_.fetch_add(1, std::memory_order_relaxed);
    return local_.ExecuteText(xmlql_text, query_options);
  }
  scatter_queries_.fetch_add(1, std::memory_order_relaxed);
  // Every shard has answered (or degraded) before the engine runs, so no
  // branch task on the worker pool ever blocks on a shard handle.
  NIMBLE_ASSIGN_OR_RETURN(
      std::vector<std::optional<core::GatheredFragment>> gathered,
      ScatterAndWait(xmlql_text, *compiled, scatters, query_options));
  Result<core::QueryResult> result =
      local_.Execute(*compiled, query_options, gathered);
  if (result.ok() && !result->report.completeness.complete) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Result<std::vector<std::optional<core::GatheredFragment>>>
Coordinator::ScatterAndWait(std::string_view xmlql_text,
                            const core::CompiledProgram& compiled,
                            const std::vector<std::optional<Scatter>>& scatters,
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
  std::vector<std::vector<ShardRun>> runs(scatters.size());
  size_t dispatched = 0;
  for (size_t b = 0; b < scatters.size(); ++b) {
    if (!scatters[b].has_value()) continue;
    for (size_t shard : scatters[b]->target_shards) {
      ShardRun run;
      run.shard = shard;
      run.handle = cluster_->shard_engine(shard)->SubmitBindings(
          std::string(xmlql_text), b, shard_options);
      runs[b].push_back(std::move(run));
      ++dispatched;
    }
    shards_pruned_.fetch_add(scatters[b]->pruned, std::memory_order_relaxed);
  }
  subqueries_.fetch_add(dispatched, std::memory_order_relaxed);

  auto cancel_all = [&runs]() {
    for (std::vector<ShardRun>& branch_runs : runs) {
      for (ShardRun& run : branch_runs) run.handle->Cancel();
    }
  };
  const std::atomic<bool>* cancel = query_options.cancel;

  // --- Wait (bounded when a straggler budget is set) ----------------------
  const int64_t budget = options_.straggler_wait_micros;
  const auto gather_start = std::chrono::steady_clock::now();
  for (size_t b = 0; b < scatters.size(); ++b) {
    for (ShardRun& run : runs[b]) {
      const Scatter& scatter = *scatters[b];
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
          straggler ? Status::Timeout("shard " + std::to_string(run.shard) +
                                      " of " + scatter.source_label +
                                      " exceeded the straggler budget")
                    : run.outcome->status();
      if (policy == core::AvailabilityPolicy::kFailFast ||
          !core::DegradableCode(status.code())) {
        cancel_all();
        return status;
      }
      // Required sources fail the query under any policy (paper §3.4).
      for (const std::string& required : query_options.required_sources) {
        if (required == scatter.source_name) {
          cancel_all();
          return Status::Unavailable("required source '" + required +
                                     "' is unavailable");
        }
      }
      run.degraded = true;
    }
  }

  // --- Gather each scattered branch's shard bindings ----------------------
  std::vector<std::optional<core::GatheredFragment>> gathered(scatters.size());
  size_t gathered_rows = 0;
  for (size_t b = 0; b < scatters.size(); ++b) {
    if (!scatters[b].has_value()) continue;
    const Scatter& scatter = *scatters[b];
    core::GatheredFragment& out = gathered[b].emplace();
    core::ExecutionReport& report = out.report;

    std::string shard_list;
    for (size_t i = 0; i < scatter.target_shards.size(); ++i) {
      if (i > 0) shard_list += ",";
      shard_list += std::to_string(scatter.target_shards[i]);
    }
    report.plan =
        "scatter: " + scatter.source_label + " shards=[" + shard_list +
        "] of " + std::to_string(scatter.map->num_fragments) +
        " pruned=" + std::to_string(scatter.pruned) +
        " key=" + scatter.map->partition_key + " (" +
        metadata::FragmentMap::KindName(scatter.map->kind) + ") est_cost=" +
        std::to_string(cost_model_.ScatterGatherCost(
            std::max(scatter.est_rows, 0.0), scatter.target_shards.size(),
            std::max(scatter.est_rows, 0.0))) +
        "\n";
    report.plan_with_stats = report.plan;

    const algebra::TupleSchema& schema =
        compiled.fragmentations[b].fragments[0].schema;
    std::vector<const algebra::TupleBatch*> answers;
    for (ShardRun& run : runs[b]) {
      const std::string header = "-- shard " + std::to_string(run.shard) +
                                 (run.degraded ? " (degraded) --\n" : " --\n");
      report.plan += header;
      report.plan_with_stats += header;
      if (run.degraded) {
        report.completeness.complete = false;
        AddUnique(&report.completeness.unavailable_sources,
                  scatter.source_label + "#shard" + std::to_string(run.shard));
        continue;
      }
      const core::QueryResult& shard_result = **run.outcome;
      const core::ExecutionReport& sr = shard_result.report;
      report.plan += sr.plan;
      report.plan_with_stats += sr.plan_with_stats;
      report.rows_shipped += sr.rows_shipped;
      report.retries += sr.retries;
      report.source_latency_micros =
          std::max(report.source_latency_micros, sr.source_latency_micros);
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
      answers.push_back(&bindings->batch);
    }
    if (!runs[b].empty() && answers.empty()) {
      out.status = Status::Unavailable("no shard of " + scatter.source_label +
                                       " answered");
    }
    algebra::TupleBatch rows = ConcatCanonical(answers, schema.size());
    gathered_rows += rows.size();
    out.bindings = core::Bindings{schema, std::move(rows)};
  }
  merge_rows_.fetch_add(gathered_rows, std::memory_order_relaxed);
  return gathered;
}

}  // namespace dist
}  // namespace nimble
