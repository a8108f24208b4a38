#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <unordered_set>

#include "algebra/construct.h"
#include "algebra/pattern_match.h"
#include "algebra/verifier.h"
#include "core/plan_verifier.h"
#include "core/sql_generator.h"
#include "opt/cardinality.h"
#include "opt/optimizer.h"

namespace nimble {
namespace core {

namespace {

/// Binds `conds` against `schema` and applies them to a fragment batch
/// (algebra::ApplyPredicates): the selection shrinks, and surviving rows
/// stay in the shared columns, unmoved.
Status FilterBatch(const std::vector<const xmlql::Condition*>& conds,
                   const algebra::TupleSchema& schema,
                   algebra::TupleBatch* batch) {
  NIMBLE_ASSIGN_OR_RETURN(std::vector<algebra::BoundExpr> bound,
                          algebra::BindConditions(conds, schema));
  return algebra::ApplyPredicates(bound, batch);
}

void AddUnique(std::vector<std::string>* list, const std::string& item) {
  if (std::find(list->begin(), list->end(), item) == list->end()) {
    list->push_back(item);
  }
}

/// Folds the report of one fragment evaluated elsewhere — a mediated view,
/// or gathered shard answers — into the query: its sources and
/// completeness into the fragment-local `report` (incompleteness taints
/// this query too), its costs into `ctx` as one fetched fragment.
void FoldFragmentReport(const ExecutionReport& done, ExecutionReport* report,
                        ExecutionContext& ctx) {
  for (const std::string& src : done.sources_contacted) {
    AddUnique(&report->sources_contacted, src);
  }
  if (!done.completeness.complete) report->completeness.complete = false;
  for (const std::string& src : done.completeness.unavailable_sources) {
    AddUnique(&report->completeness.unavailable_sources, src);
  }
  ctx.AddRowsShipped(done.rows_shipped);
  ctx.AddLatency(done.source_latency_micros);
  ctx.AddRetries(done.retries);
  ctx.AddFragment(/*pushed_down=*/false, /*hit_index=*/false,
                  /*bind_joined=*/false);
}

/// The availability policy for a branch that failed with `status` while
/// the sources in `unavailable` were down: under kPartial a source outage
/// degrades the branch (OK — the caller drops its answer and marks the
/// query incomplete) unless a required source is among them (paper §3.4);
/// every other failure fails the query.
Status DegradeBranch(const Status& status,
                     const std::vector<std::string>& unavailable,
                     const QueryOptions& query_options,
                     AvailabilityPolicy policy) {
  if (status.code() != StatusCode::kUnavailable) return status;
  for (const std::string& src : unavailable) {
    for (const std::string& required : query_options.required_sources) {
      if (required == src) {
        return Status::Unavailable("required source '" + src +
                                   "' is unavailable");
      }
    }
  }
  if (policy == AvailabilityPolicy::kFailFast) return status;
  return Status::OK();
}

/// The admission scheduler `options` ask for; nullptr when
/// `max_inflight_queries` is 0.
std::unique_ptr<sched::QueryScheduler> MakeScheduler(
    const EngineOptions& options, Clock* clock, ThreadPool* pool) {
  if (options.max_inflight_queries == 0) return nullptr;
  sched::SchedulerOptions sched_options;
  sched_options.max_inflight_queries = options.max_inflight_queries;
  sched_options.queue_capacity = options.queue_capacity;
  sched_options.load_shedding = options.load_shedding;
  sched_options.tenant_weights = options.tenant_weights;
  sched_options.default_tenant_weight = options.default_tenant_weight;
  return std::make_unique<sched::QueryScheduler>(sched_options, clock, pool);
}

}  // namespace

std::string ExecutionReport::Summary() const {
  std::string out = std::to_string(result_count) + " results, " +
                    std::to_string(rows_shipped) + " rows shipped, " +
                    std::to_string(source_latency_micros) + "us source time, " +
                    std::to_string(fragments_pushed_down) + " pushed / " +
                    std::to_string(fragments_fetched) + " fetched";
  if (retries > 0) out += ", " + std::to_string(retries) + " retries";
  out += "; " + completeness.ToString();
  return out;
}

const Result<QueryResult>& QueryHandle::Wait() {
  MutexLock lock(mutex_);
  while (!done_) cv_.Wait(mutex_);
  return *result_;
}

const Result<QueryResult>* QueryHandle::WaitFor(int64_t timeout_micros) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  MutexLock lock(mutex_);
  while (!done_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return nullptr;
    cv_.WaitFor(mutex_, std::chrono::duration_cast<std::chrono::microseconds>(
                            deadline - now)
                            .count());
  }
  return &*result_;
}

bool QueryHandle::done() const {
  MutexLock lock(mutex_);
  return done_;
}

void QueryHandle::Cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  std::shared_ptr<sched::QueryScheduler::Submission> submission;
  {
    MutexLock lock(mutex_);
    submission = submission_;
  }
  // Outside the lock: a successful queue-cancel fires Fulfill, which takes
  // the lock again.
  if (submission != nullptr) submission->Cancel();
}

void QueryHandle::Fulfill(Result<QueryResult> result) {
  {
    MutexLock lock(mutex_);
    if (done_) return;
    result_ = std::move(result);
    done_ = true;
  }
  cv_.NotifyAll();
}

IntegrationEngine::IntegrationEngine(metadata::Catalog* catalog,
                                     EngineOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      owned_pool_(options_.worker_threads > 0
                      ? std::make_unique<ThreadPool>(options_.worker_threads)
                      : nullptr),
      plan_cache_(std::make_unique<PlanCache>(
          std::max<size_t>(options_.plan_cache_entries, 1))),
      scheduler_(MakeScheduler(options_, clock(), pool())) {}

IntegrationEngine::~IntegrationEngine() {
  // Scheduled submits drain in ~QueryScheduler (declared last, destroyed
  // first). Unscheduled ones run free on the worker pool with a `this`
  // capture — a cancelled scatter-gather straggler abandons its handle
  // while the query is still executing — so wait them out before any
  // member is torn down.
  MutexLock lock(inflight_mutex_);
  while (inflight_submits_ > 0) inflight_cv_.Wait(inflight_mutex_);
}

ThreadPool* IntegrationEngine::pool() const {
  return owned_pool_ != nullptr ? owned_pool_.get() : ThreadPool::Shared();
}

Clock* IntegrationEngine::clock() const {
  if (options_.clock != nullptr) return options_.clock;
  static RealClock real_clock;
  return &real_clock;
}

Result<std::shared_ptr<const CompiledProgram>> IntegrationEngine::GetOrCompile(
    std::string_view text) {
  // With the cost-based optimizer on, the statistics epoch is part of the
  // cache key: a plan compiled under superseded stats is evicted (counted
  // as a stats_eviction) and re-optimized instead of served forever.
  const uint64_t epoch = options_.enable_cost_optimizer
                             ? catalog_->statistics().epoch()
                             : 0;
  if (!options_.verify_plans) return plan_cache_->GetOrCompile(text, epoch);
  // Cached plans are re-verified on every hit: a plan compiled against an
  // older catalog (a collection dropped, a view redefined) is evicted and
  // recompiled instead of executed.
  std::string canonical = CanonicalizeQueryText(text);
  std::shared_ptr<const CompiledProgram> cached =
      plan_cache_->Lookup(canonical, epoch);
  if (cached != nullptr) {
    if (VerifyCompiledProgram(*cached, *catalog_).ok()) return cached;
    plan_cache_->Erase(canonical);
  }
  NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                          CompileProgram(text));
  NIMBLE_RETURN_IF_ERROR(VerifyCompiledProgram(*compiled, *catalog_));
  plan_cache_->Insert(canonical, compiled, epoch);
  return compiled;
}

Result<QueryResult> IntegrationEngine::ExecuteText(
    std::string_view xmlql_text, const QueryOptions& query_options) {
  if (scheduler_ == nullptr) {
    return ExecuteTextNow(xmlql_text, query_options, 0, nullptr);
  }
  // Through the scheduler, so synchronous callers get the same admission
  // control, fair-share accounting and shedding as async ones.
  QueryHandlePtr handle = Submit(std::string(xmlql_text), query_options);
  return handle->Wait();
}

QueryHandlePtr IntegrationEngine::Submit(std::string xmlql_text,
                                         const QueryOptions& query_options) {
  return SubmitQuery(
      [this, text = std::move(xmlql_text), query_options](
          int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel) {
        return ExecuteTextNow(text, query_options, queue_wait_micros,
                              handle_cancel);
      },
      query_options);
}

QueryHandlePtr IntegrationEngine::SubmitBindings(
    std::string xmlql_text, size_t branch, const QueryOptions& query_options) {
  return SubmitQuery(
      [this, text = std::move(xmlql_text), branch, query_options](
          int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel) {
        return ExecuteBindingsNow(text, branch, query_options,
                                  queue_wait_micros, handle_cancel);
      },
      query_options);
}

QueryHandlePtr IntegrationEngine::SubmitQuery(
    SubmittedQuery run, const QueryOptions& query_options) {
  auto handle = std::make_shared<QueryHandle>();
  if (scheduler_ == nullptr) {
    // No admission control configured: run asynchronously, unqueued. The
    // inflight count keeps the destructor from tearing the engine down
    // under a task whose handle the caller abandoned.
    {
      MutexLock lock(inflight_mutex_);
      ++inflight_submits_;
    }
    pool()->Submit([this, handle, run = std::move(run)] {
      handle->Fulfill(run(0, &handle->cancel_));
      MutexLock lock(inflight_mutex_);
      if (--inflight_submits_ == 0) inflight_cv_.NotifyAll();
    });
    return handle;
  }
  sched::SubmitInfo info;
  info.tenant = query_options.tenant;
  info.priority = query_options.priority;
  info.deadline_micros = options_.query_deadline_micros;
  // Dequeue-time drop watches the handle's flag; the caller's own
  // QueryOptions::cancel still stops execution cooperatively.
  info.cancel = &handle->cancel_;
  auto submission = scheduler_->Submit(
      info,
      [handle, run = std::move(run)](int64_t queue_wait_micros) {
        handle->Fulfill(run(queue_wait_micros, &handle->cancel_));
      },
      [handle](const Status& status) { handle->Fulfill(status); });
  if (!submission.ok()) {
    handle->Fulfill(submission.status());
    return handle;
  }
  {
    MutexLock lock(handle->mutex_);
    handle->submission_ = *submission;
  }
  return handle;
}

Result<QueryResult> IntegrationEngine::ExecuteTextNow(
    std::string_view xmlql_text, const QueryOptions& query_options,
    int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel) {
  NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                          GetOrCompile(xmlql_text));
  return ExecuteCompiled(*compiled, query_options, {}, queue_wait_micros,
                         handle_cancel);
}

Result<QueryResult> IntegrationEngine::Execute(
    const CompiledProgram& compiled, const QueryOptions& query_options,
    const std::vector<std::optional<GatheredFragment>>& gathered) {
  if (!gathered.empty() &&
      gathered.size() != compiled.program.branches.size()) {
    return Status::InvalidArgument("gathered fragments must line up with "
                                   "the program's branches");
  }
  if (scheduler_ == nullptr) {
    return ExecuteCompiled(compiled, query_options, gathered, 0, nullptr);
  }
  // Admitted as ExecuteText is. This thread waits for the handle, and a
  // dropped submission never runs, so the references outlive the run.
  QueryHandlePtr handle = SubmitQuery(
      [this, &compiled, &query_options, &gathered](
          int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel) {
        return ExecuteCompiled(compiled, query_options, gathered,
                               queue_wait_micros, handle_cancel);
      },
      query_options);
  return handle->Wait();
}

Result<QueryResult> IntegrationEngine::ExecuteCompiled(
    const CompiledProgram& compiled, const QueryOptions& query_options,
    const std::vector<std::optional<GatheredFragment>>& gathered,
    int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel) {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  ExecutionContext ctx =
      NewContext(query_options, queue_wait_micros, handle_cancel);
  Result<QueryResult> result =
      ExecuteInternal(compiled.program, compiled.fragmentations, gathered,
                      query_options, 0, ctx);
  if (result.ok()) ctx.FillReport(&result->report);
  return result;
}

ExecutionContext IntegrationEngine::NewContext(
    const QueryOptions& query_options, int64_t queue_wait_micros,
    const std::atomic<bool>* handle_cancel) {
  RetryPolicy retry;
  retry.max_retries = options_.fetch_retries;
  retry.initial_backoff_micros = options_.retry_backoff_micros;
  retry.backoff_multiplier = options_.retry_backoff_multiplier;
  retry.max_backoff_micros = options_.retry_backoff_max_micros;
  retry.jitter = options_.retry_jitter;
  retry.jitter_seed = options_.retry_jitter_seed;
  return ExecutionContext(clock(), pool(), options_.query_deadline_micros,
                          retry, options_.parallel_fetch, query_options.cancel,
                          queue_wait_micros, handle_cancel);
}

Result<QueryResult> IntegrationEngine::ExecuteBindingsNow(
    std::string_view xmlql_text, size_t branch,
    const QueryOptions& query_options, int64_t queue_wait_micros,
    const std::atomic<bool>* handle_cancel) {
  NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                          GetOrCompile(xmlql_text));
  if (branch >= compiled->fragmentations.size() ||
      compiled->fragmentations[branch].fragments.size() != 1) {
    return Status::InvalidArgument(
        "a bindings request needs a single-pattern branch");
  }
  const Fragmentation& fragmentation = compiled->fragmentations[branch];
  const Fragment& fragment = fragmentation.fragments[0];
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  ExecutionContext ctx =
      NewContext(query_options, queue_wait_micros, handle_cancel);

  QueryResult result;
  ExecutionReport& report = result.report;
  Result<FragmentResult> fr =
      EvaluateFragment(fragment, query_options, /*view_depth=*/0,
                       /*bind_values=*/nullptr, /*top_pushdown=*/nullptr,
                       &report, ctx);
  Bindings bindings;
  if (fr.ok()) {
    // A single-pattern branch has cross conditions only when they name a
    // variable the pattern does not bind; binding them fails here exactly
    // as it fails the local plan.
    NIMBLE_RETURN_IF_ERROR(
        FilterBatch(fragmentation.cross_conditions, fr->schema, &fr->data));
    algebra::MaterializedScan scan(std::move(fr->schema), std::move(fr->data),
                                   fr->label);
    report.plan = scan.Describe();
    bindings = Bindings{scan.schema(), scan.data()};
  } else {
    const AvailabilityPolicy policy =
        query_options.availability.value_or(options_.availability);
    NIMBLE_RETURN_IF_ERROR(DegradeBranch(fr.status(),
                                         report.completeness.unavailable_sources,
                                         query_options, policy));
    report.completeness.complete = false;
    report.completeness.skipped_branches.push_back(branch);
    bindings = Bindings{fragment.schema,
                        algebra::TupleBatch(fragment.schema.size())};
  }
  report.plan_with_stats = report.plan;
  report.result_count = bindings.batch.size();
  ctx.FillReport(&report);
  result.bindings = std::move(bindings);
  return result;
}

Result<QueryResult> IntegrationEngine::ExecuteInternal(
    const xmlql::Program& program,
    const std::vector<Fragmentation>& fragmentations,
    const std::vector<std::optional<GatheredFragment>>& gathered,
    const QueryOptions& query_options, int view_depth, ExecutionContext& ctx) {
  if (view_depth > options_.max_view_depth) {
    return Status::InvalidArgument("mediated view nesting exceeds depth " +
                                   std::to_string(options_.max_view_depth));
  }
  AvailabilityPolicy policy =
      query_options.availability.value_or(options_.availability);

  QueryResult result;
  result.document = Node::Element("results");
  ExecutionReport& report = result.report;

  // Every branch executes into its own root with its own ordered report;
  // branches run concurrently under parallel_fetch and the outputs are
  // merged in branch order below, so the result document is deterministic.
  const size_t num_branches = program.branches.size();
  std::vector<ExecutionReport> branch_reports(num_branches);
  std::vector<NodePtr> branch_roots(num_branches);
  std::vector<Status> branch_status(num_branches, Status::OK());

  auto run_branch = [&](size_t i) {
    const GatheredFragment* from =
        i < gathered.size() && gathered[i].has_value() ? &*gathered[i]
                                                       : nullptr;
    branch_status[i] = ExecuteBranch(program.branches[i], fragmentations[i],
                                     from, query_options, view_depth,
                                     &branch_roots[i], &branch_reports[i], ctx);
  };
  if (options_.parallel_fetch && num_branches > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_branches);
    for (size_t i = 0; i < num_branches; ++i) {
      tasks.push_back([&run_branch, i] { run_branch(i); });
    }
    ctx.pool()->RunParallel(std::move(tasks));
  } else {
    for (size_t i = 0; i < num_branches; ++i) run_branch(i);
  }

  for (size_t branch = 0; branch < num_branches; ++branch) {
    const ExecutionReport& branch_report = branch_reports[branch];
    // Merge ordered bookkeeping even for failed branches (work was done).
    for (const std::string& src : branch_report.sources_contacted) {
      AddUnique(&report.sources_contacted, src);
    }
    if (!branch_report.plan.empty()) {
      if (!report.plan.empty()) report.plan += "\n";
      if (num_branches > 1) {
        report.plan += "-- branch " + std::to_string(branch) + " --\n";
      }
      report.plan += branch_report.plan;
    }
    if (!branch_report.plan_with_stats.empty()) {
      if (!report.plan_with_stats.empty()) report.plan_with_stats += "\n";
      if (num_branches > 1) {
        report.plan_with_stats +=
            "-- branch " + std::to_string(branch) + " --\n";
      }
      report.plan_with_stats += branch_report.plan_with_stats;
    }

    const Status& status = branch_status[branch];
    if (status.ok()) {
      // Nested mediated-view incompleteness taints this query too.
      if (!branch_report.completeness.complete) {
        report.completeness.complete = false;
        for (const std::string& src :
             branch_report.completeness.unavailable_sources) {
          AddUnique(&report.completeness.unavailable_sources, src);
        }
      }
      for (NodePtr& child : branch_roots[branch]->TakeChildren()) {
        result.document->AddChild(std::move(child));
      }
      continue;
    }
    NIMBLE_RETURN_IF_ERROR(DegradeBranch(
        status, branch_report.completeness.unavailable_sources, query_options,
        policy));
    for (const std::string& src :
         branch_report.completeness.unavailable_sources) {
      AddUnique(&report.completeness.unavailable_sources, src);
    }
    report.completeness.complete = false;
    report.completeness.skipped_branches.push_back(branch);
  }

  report.result_count = result.document->children().size();
  report.completeness.StampOn(result.document.get());
  return result;
}

void IntegrationEngine::HarvestBindValues(
    const FragmentResult& fr,
    std::map<std::string, std::vector<Value>>* bind_values) const {
  // Distinct values for future bind joins: scalar bindings only (node
  // bindings join by deep equality, which IN cannot express), and finite
  // ones (SQL has no literal for NaN or an infinity; the mediator's join
  // matches those keys).
  for (const std::string& var : fr.schema.variables()) {
    if (bind_values->count(var) > 0) continue;
    size_t slot = *fr.schema.SlotOf(var);
    std::unordered_set<Value, ValueKeyHash, ValueKeyEqual> seen;
    std::vector<Value> distinct;
    bool usable = true;
    for (size_t i = 0; i < fr.data.size(); ++i) {
      const algebra::Binding& binding = fr.data.binding(slot, i);
      const Value& v = binding.AsScalar();
      if (binding.is_node() ||
          (v.is_double() && !std::isfinite(v.AsDouble()))) {
        usable = false;
        break;
      }
      if (seen.insert(v).second) distinct.push_back(v);
      if (distinct.size() > options_.bind_join_limit) {
        usable = false;
        break;
      }
    }
    if (usable) (*bind_values)[var] = std::move(distinct);
  }
}

Status IntegrationEngine::ExecuteBranch(const xmlql::Query& query,
                                        const Fragmentation& fragmentation,
                                        const GatheredFragment* gathered,
                                        const QueryOptions& query_options,
                                        int view_depth, NodePtr* out_root,
                                        ExecutionReport* report,
                                        ExecutionContext& ctx) {
  const size_t num_fragments = fragmentation.fragments.size();
  if (gathered != nullptr) {
    if (num_fragments != 1) {
      return Status::InvalidArgument(
          "gathered bindings need a single-pattern branch");
    }
    // EXPLAIN shows where the rows came from above the plan run on them.
    report->plan = gathered->report.plan;
    report->plan_with_stats = gathered->report.plan_with_stats;
  }

  // Dependency-aware waves: fragments that can *consume* bind-join values
  // (SQL-capable sources, when pushdown and bind joins are both on) form a
  // sequential chain evaluated after the independent wave, so every chain
  // fragment sees the join-key sets of everything before it — the same
  // dataflow the old serial loop produced. Everything else is independent
  // and fetched concurrently under parallel_fetch.
  std::vector<size_t> independent;
  std::vector<size_t> chained;
  if (gathered == nullptr && options_.enable_bind_join &&
      options_.enable_pushdown) {
    for (size_t i = 0; i < num_fragments; ++i) {
      const xmlql::SourceRef& ref = fragmentation.fragments[i].pattern->source;
      connector::Connector* source =
          ref.is_view() ? nullptr : catalog_->source(ref.source);
      bool sql_capable =
          source != nullptr && source->capabilities().supports_sql;
      (sql_capable ? chained : independent).push_back(i);
    }
  } else {
    for (size_t i = 0; i < num_fragments; ++i) independent.push_back(i);
  }

  // Complete distinct join-key sets from already-evaluated fragments.
  std::map<std::string, std::vector<Value>> bind_values;

  // ORDER BY/LIMIT can ride into the source only when this fragment *is*
  // the query.
  TopLevelPushdown top;
  top.order_by = &query.order_by;
  top.limit = query.limit;
  bool top_eligible = num_fragments == 1 &&
                      fragmentation.cross_conditions.empty() &&
                      !query.IsAggregation();

  std::vector<std::optional<FragmentResult>> slots(num_fragments);
  std::vector<ExecutionReport> fragment_reports(num_fragments);
  std::vector<Status> fragment_status(num_fragments, Status::OK());

  auto evaluate = [&](size_t index,
                      const std::map<std::string, std::vector<Value>>* bind) {
    Result<FragmentResult> fr =
        gathered != nullptr
            ? ReadGathered(*gathered, fragmentation.fragments[index],
                           &fragment_reports[index], ctx)
            : EvaluateFragment(fragmentation.fragments[index], query_options,
                               view_depth, bind, top_eligible ? &top : nullptr,
                               &fragment_reports[index], ctx);
    if (fr.ok()) {
      slots[index] = std::move(*fr);
    } else {
      fragment_status[index] = fr.status();
    }
  };

  // Wave 1: independent fragments, concurrently when enabled. They consume
  // no bind values (none exist yet), so evaluation order cannot matter.
  if (options_.parallel_fetch && independent.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(independent.size());
    for (size_t index : independent) {
      tasks.push_back([&evaluate, index] { evaluate(index, nullptr); });
    }
    ctx.pool()->RunParallel(std::move(tasks));
  } else {
    for (size_t index : independent) {
      evaluate(index, options_.enable_bind_join ? &bind_values : nullptr);
    }
  }
  // Harvest in index order so the bind-value sets (and therefore the SQL
  // the chain generates) are deterministic under concurrency.
  if (options_.enable_bind_join && !chained.empty()) {
    for (size_t index : independent) {
      if (slots[index].has_value()) {
        HarvestBindValues(*slots[index], &bind_values);
      }
    }
  }

  bool wave_failed = false;
  for (size_t index : independent) {
    if (!fragment_status[index].ok()) {
      wave_failed = true;
      break;
    }
  }

  // Wave 2: the bind-join chain, sequential by construction.
  if (!wave_failed) {
    for (size_t index : chained) {
      evaluate(index, options_.enable_bind_join ? &bind_values : nullptr);
      if (!fragment_status[index].ok()) break;
      if (options_.enable_bind_join) {
        HarvestBindValues(*slots[index], &bind_values);
      }
    }
  }

  // Merge fragment-local ordered bookkeeping (sources contacted, nested
  // completeness) in evaluation order — including failed fragments, whose
  // unavailable-source lists drive the availability policy upstream.
  std::vector<size_t> order = independent;
  order.insert(order.end(), chained.begin(), chained.end());
  for (size_t index : order) {
    const ExecutionReport& fragment_report = fragment_reports[index];
    for (const std::string& src : fragment_report.sources_contacted) {
      AddUnique(&report->sources_contacted, src);
    }
    if (!fragment_report.completeness.complete) {
      report->completeness.complete = false;
    }
    for (const std::string& src :
         fragment_report.completeness.unavailable_sources) {
      AddUnique(&report->completeness.unavailable_sources, src);
    }
  }
  for (size_t index : order) {
    if (!fragment_status[index].ok()) return fragment_status[index];
  }

  std::vector<FragmentResult> fragment_results;
  fragment_results.reserve(num_fragments);
  for (size_t index : order) {
    fragment_results.push_back(std::move(*slots[index]));
  }

  // Adaptive feedback, scan level: feed observed collection sizes back
  // into the catalog. RecordObservedRows advances the stats epoch only
  // when a previously recorded row count was off by more than the replan
  // factor (in either direction), so cached plans re-optimize exactly when
  // the data moved — self-limiting, because the update also corrects the
  // count.
  if (options_.enable_cost_optimizer) {
    constexpr double kReplanErrorFactor = 10.0;
    metadata::StatisticsCatalog& stats = catalog_->statistics();
    for (const FragmentResult& fr : fragment_results) {
      if (fr.stat_source.empty() || fr.base_rows < 0.0) continue;
      stats.RecordObservedRows(fr.stat_source, fr.stat_collection,
                               fr.base_rows, kReplanErrorFactor);
    }
  }

  Result<std::unique_ptr<algebra::Operator>> plan = BuildPlan(
      std::move(fragment_results), fragmentation.cross_conditions, query);
  if (!plan.ok()) return plan.status();
  (*plan)->SetBatchSize(options_.batch_size);
  // Thread the deadline/cancel probe through the whole operator tree so a
  // cancelled or timed-out query stops draining mid-batch instead of running
  // the plan to completion (ctx outlives the drain loop below).
  (*plan)->SetCancelProbe([&ctx] { return ctx.Check(); });
  report->plan += (*plan)->Describe();

  if (options_.verify_plans) {
    // IR invariants over the freshly built tree, then I10: the root schema
    // must supply everything the CONSTRUCT template consumes.
    NIMBLE_RETURN_IF_ERROR(algebra::VerifyPlan(**plan));
    NIMBLE_RETURN_IF_ERROR(algebra::VerifyPlanProducesVariables(
        **plan, algebra::ConstructInputs(query)));
  }

  NIMBLE_ASSIGN_OR_RETURN(*out_root,
                          algebra::ConstructResult(plan->get(), *query.construct));
  // Counters survive Close(); render the executed plan with per-operator
  // batch/row production (and est_rows annotations) for EXPLAIN.
  report->plan_with_stats += (*plan)->DescribeWithStats();
  return Status::OK();
}

Result<IntegrationEngine::FragmentResult> IntegrationEngine::EvaluateFragment(
    const Fragment& fragment, const QueryOptions& query_options,
    int view_depth,
    const std::map<std::string, std::vector<Value>>* bind_values,
    const TopLevelPushdown* top_pushdown, ExecutionReport* report,
    ExecutionContext& ctx) {
  // External cancellation and deadlines are authoritative here; the
  // connector-level Admit check is a best-effort second line.
  NIMBLE_RETURN_IF_ERROR(ctx.Check());

  FragmentResult out;
  const xmlql::SourceRef& source_ref = fragment.pattern->source;

  if (source_ref.is_view()) {
    // Mediated-view reference: execute the view's program recursively and
    // match this pattern against its result document (GAV expansion). The
    // child context shares the deadline, cancellation flag and pool but
    // accumulates its own counters, which this fragment then reports as
    // its cost — the view behaves like one (fetched) fragment upstream.
    const metadata::MediatedView* view = catalog_->view(source_ref.collection);
    if (view == nullptr) {
      return Status::NotFound("no view or source named '" +
                              source_ref.collection + "'");
    }
    // The plan cache makes repeated view expansion skip parse+fragment.
    NIMBLE_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> view_plan,
                            GetOrCompile(view->query_text));
    ExecutionContext view_ctx(ctx);
    Result<QueryResult> view_result =
        ExecuteInternal(view_plan->program, view_plan->fragmentations, {},
                        query_options, view_depth + 1, view_ctx);
    if (!view_result.ok()) {
      if (view_result.status().code() == StatusCode::kUnavailable) {
        // Propagate which sources were down.
        for (const std::string& src : view->source_dependencies) {
          AddUnique(&report->completeness.unavailable_sources, src);
        }
      }
      return view_result.status();
    }
    view_ctx.FillReport(&view_result->report);
    FoldFragmentReport(view_result->report, report, ctx);
    out.latency_micros = view_result->report.source_latency_micros;
    out.rows_shipped = view_result->report.rows_shipped;
    out.schema = fragment.schema;
    NIMBLE_ASSIGN_OR_RETURN(
        out.data, algebra::MatchPattern(fragment.pattern->root,
                                        view_result->document, out.schema));
    NIMBLE_RETURN_IF_ERROR(
        FilterBatch(fragment.local_conditions, out.schema, &out.data));
    out.label = "view:" + source_ref.collection;
    return out;
  }

  connector::Connector* source = catalog_->source(source_ref.source);
  if (source == nullptr) {
    return Status::NotFound("no source named '" + source_ref.source + "'");
  }
  AddUnique(&report->sources_contacted, source_ref.source);

  std::shared_ptr<const metadata::CollectionStats> col_stats =
      AttachStatistics(fragment, &out);

  // Per-source pushdown depth: a bind join whose IN list already covers
  // most of the target column's distinct values prunes almost nothing but
  // still pays translation + shipping, so the cost model drops it — unless
  // the source has a secondary index on the column and probing it once per
  // key is still cheaper than the full scan the drop would force
  // (index-nested-loop alternative; the pushed SQL's IN list becomes index
  // probes on the source side).
  const std::map<std::string, std::vector<Value>>* effective_bind =
      bind_values;
  std::map<std::string, std::vector<Value>> gated_bind;
  if (bind_values != nullptr && col_stats != nullptr) {
    opt::CostModel cost_model;
    bool dropped = false;
    for (const auto& [var, values] : *bind_values) {
      auto it = out.var_columns.find(var);
      const metadata::ColumnStats* column =
          it != out.var_columns.end() ? col_stats->column(it->second)
                                      : nullptr;
      if (column != nullptr &&
          !cost_model.UseBindJoin(values.size(), column->distinct())) {
        const bool has_index = source->capabilities().HasIndexOn(
            source_ref.collection, column->name);
        if (!cost_model.UseIndexNestedLoop(
                values.size(), static_cast<double>(col_stats->row_count),
                has_index)) {
          dropped = true;
          continue;
        }
      }
      gated_bind.emplace(var, values);
    }
    if (dropped) effective_bind = &gated_bind;
  }

  // This fragment's own wire cost, attributed by the connector per call
  // (cumulative connector counters cannot be diffed once fetches overlap).
  connector::FetchStats call_stats;
  connector::RequestContext request = ctx.MakeRequest(&call_stats);

  // Transparent retries on transient unavailability: exponential backoff
  // with jitter, never past the deadline (§3.4 — mask blips before the
  // availability policy has to get involved).
  auto with_retries = [&](auto call) {
    auto result = call();
    for (size_t attempt = 0; !result.ok() &&
                             result.status().code() == StatusCode::kUnavailable &&
                             attempt < ctx.retry().max_retries;
         ++attempt) {
      if (!ctx.Check().ok()) break;
      int64_t backoff = ctx.NextBackoffMicros(attempt);
      if (backoff < 0) break;  // the delay cannot fit before the deadline
      ctx.SleepForRetry(backoff);
      result = call();
    }
    return result;
  };

  // Try SQL pushdown first.
  if (options_.enable_pushdown) {
    Result<SqlTranslation> translation = TranslateFragmentToSql(
        fragment, source->capabilities(), effective_bind, top_pushdown);
    if (translation.ok()) {
      Result<relational::ResultSet> rs = with_retries(
          [&] { return source->ExecuteSql(translation->sql, request); });
      if (!rs.ok()) {
        if (rs.status().code() == StatusCode::kUnavailable) {
          AddUnique(&report->completeness.unavailable_sources,
                    source_ref.source);
        }
        return rs.status();
      }
      algebra::TupleSchema schema(translation->variables);
      // Transpose the shipped rows straight into batch columns (moving the
      // values) — the plan's scan then serves slices of these columns.
      algebra::TupleBatch data(schema.size());
      data.Reserve(rs->rows.size());
      for (relational::Row& row : rs->rows) {
        const size_t n = std::min(schema.size(), row.size());
        for (size_t c = 0; c < n; ++c) {
          data.MutableColumn(c).emplace_back(std::move(row[c]));
        }
        data.SetNumRows(data.num_rows() + 1);
      }
      // Apply local conditions the translation did not consume.
      std::vector<const xmlql::Condition*> residual;
      for (const xmlql::Condition* cond : fragment.local_conditions) {
        bool consumed = false;
        for (const xmlql::Condition* pushed : translation->pushed_conditions) {
          if (pushed == cond) {
            consumed = true;
            break;
          }
        }
        if (!consumed) residual.push_back(cond);
      }
      NIMBLE_RETURN_IF_ERROR(FilterBatch(residual, schema, &data));

      out.schema = std::move(schema);
      out.data = std::move(data);
      out.rows_shipped = call_stats.rows_shipped;
      out.latency_micros = call_stats.latency_micros;
      out.pushed_down = true;
      out.hit_index = translation->predicate_hits_index;
      out.bind_joined = !translation->bound_variables.empty();
      if (out.est_rows >= 0.0 && col_stats != nullptr &&
          effective_bind != nullptr) {
        // Pushed IN lists act like index lookups: scale the estimate by
        // the fraction of the column's key domain they select.
        for (const std::string& var : translation->bound_variables) {
          auto bv = effective_bind->find(var);
          auto vc = out.var_columns.find(var);
          if (bv == effective_bind->end() || vc == out.var_columns.end()) {
            continue;
          }
          const metadata::ColumnStats* column = col_stats->column(vc->second);
          if (column == nullptr) continue;
          double coverage =
              static_cast<double>(bv->second.size()) / column->distinct();
          if (coverage < 1.0) out.est_rows *= coverage;
        }
      }
      // The collection's record count is only observable when nothing
      // row-reducing was folded into the source-side SQL (a pushed ORDER
      // BY reorders but keeps every record).
      if (translation->pushed_conditions.empty() &&
          translation->bound_variables.empty() && !translation->limit_pushed) {
        out.base_rows = static_cast<double>(out.data.num_rows());
      }
      out.label = (out.bind_joined ? "sql+bind:" : "sql:") +
                  source_ref.ToString();
      ctx.AddRowsShipped(out.rows_shipped);
      ctx.AddLatency(out.latency_micros);
      ctx.AddFragment(out.pushed_down, out.hit_index, out.bind_joined);
      return out;
    }
    // Unsupported shapes fall back to fetch+match below; real errors too —
    // the fetch path will surface them.
  }

  Result<NodePtr> tree = with_retries(
      [&] { return source->FetchCollection(source_ref.collection, request); });
  if (!tree.ok()) {
    if (tree.status().code() == StatusCode::kUnavailable) {
      AddUnique(&report->completeness.unavailable_sources, source_ref.source);
    }
    return tree.status();
  }
  out.schema = fragment.schema;
  // The whole collection crossed the wire: its record count is the exact
  // row count for statistics upkeep.
  out.base_rows = static_cast<double>((*tree)->children().size());
  NIMBLE_ASSIGN_OR_RETURN(
      out.data,
      algebra::MatchPattern(fragment.pattern->root, *tree, out.schema));
  NIMBLE_RETURN_IF_ERROR(
      FilterBatch(fragment.local_conditions, out.schema, &out.data));
  out.rows_shipped = call_stats.rows_shipped;
  out.latency_micros = call_stats.latency_micros;
  out.label = "fetch:" + source_ref.ToString();
  ctx.AddRowsShipped(out.rows_shipped);
  ctx.AddLatency(out.latency_micros);
  ctx.AddFragment(out.pushed_down, out.hit_index, out.bind_joined);
  return out;
}

Result<IntegrationEngine::FragmentResult> IntegrationEngine::ReadGathered(
    const GatheredFragment& gathered, const Fragment& fragment,
    ExecutionReport* report, ExecutionContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(ctx.Check());
  FoldFragmentReport(gathered.report, report, ctx);
  NIMBLE_RETURN_IF_ERROR(gathered.status);
  if (!(gathered.bindings.schema == fragment.schema)) {
    return Status::InvalidArgument(
        "gathered bindings do not match the fragment's variables");
  }
  FragmentResult out;
  AttachStatistics(fragment, &out);
  out.schema = gathered.bindings.schema;
  out.data = gathered.bindings.batch;
  out.rows_shipped = gathered.report.rows_shipped;
  out.latency_micros = gathered.report.source_latency_micros;
  out.label = "gather:" + fragment.pattern->source.ToString();
  return out;
}

std::shared_ptr<const metadata::CollectionStats>
IntegrationEngine::AttachStatistics(const Fragment& fragment,
                                    FragmentResult* out) const {
  if (!options_.enable_cost_optimizer) return nullptr;
  const xmlql::SourceRef& ref = fragment.pattern->source;
  out->stat_source = ref.source;
  out->stat_collection = ref.collection;
  out->var_columns = opt::VariableColumns(fragment.pattern->root);
  std::shared_ptr<const metadata::CollectionStats> stats =
      catalog_->statistics().Get(ref.source, ref.collection);
  if (stats != nullptr) {
    out->est_rows = opt::EstimateFragmentRows(*stats, out->var_columns,
                                              fragment.local_conditions);
  }
  return stats;
}

Result<std::unique_ptr<algebra::Operator>> IntegrationEngine::BuildPlan(
    std::vector<FragmentResult> fragments,
    const std::vector<const xmlql::Condition*>& cross_conditions,
    const xmlql::Query& query) {
  const bool cost_based = options_.enable_cost_optimizer;
  std::vector<opt::JoinInput> inputs;
  inputs.reserve(fragments.size());
  for (FragmentResult& fr : fragments) {
    opt::JoinInput input;
    input.actual_rows = static_cast<double>(fr.data.size());
    input.est_rows = cost_based ? fr.est_rows : -1.0;
    if (cost_based) {
      // Distinct counts per variable: catalog sketches when the variable
      // maps to an analyzed column, else a KMV sketch over the
      // materialized batch (views, nested bindings). Capped by this
      // input's cardinality so join selectivities stay consistent.
      std::shared_ptr<const metadata::CollectionStats> cs;
      if (!fr.stat_source.empty()) {
        cs = catalog_->statistics().Get(fr.stat_source, fr.stat_collection);
      }
      const double cap = input.est_rows >= 0.0
                             ? std::max(input.est_rows, 1.0)
                             : std::max(input.actual_rows, 1.0);
      for (const std::string& var : fr.schema.variables()) {
        const metadata::ColumnStats* column = nullptr;
        auto it = fr.var_columns.find(var);
        if (cs != nullptr && it != fr.var_columns.end()) {
          column = cs->column(it->second);
        }
        double ndv = column != nullptr
                         ? column->distinct()
                         : opt::ColumnDistinctEstimate(
                               fr.data, *fr.schema.SlotOf(var));
        input.var_ndv[var] = std::min(ndv, cap);
      }
    }
    input.op = std::make_unique<algebra::MaterializedScan>(
        std::move(fr.schema), std::move(fr.data), fr.label);
    inputs.push_back(std::move(input));
  }

  NIMBLE_ASSIGN_OR_RETURN(
      opt::JoinTreeResult tree,
      opt::BuildJoinTree(std::move(inputs), cross_conditions,
                         opt::CostModel{}, cost_based));
  std::unique_ptr<algebra::Operator> plan = std::move(tree.root);
  double est = tree.est_rows;

  // Aggregation: group by the GROUP BY variables and compute the template's
  // aggregate calls (outputs named as algebra::AggregateSpecs documents).
  if (query.IsAggregation()) {
    NIMBLE_ASSIGN_OR_RETURN(
        std::vector<algebra::HashAggregate::Spec> specs,
        algebra::AggregateSpecs(*query.construct, plan->schema()));
    plan = std::make_unique<algebra::HashAggregate>(
        std::move(plan), query.group_by, std::move(specs));
    if (cost_based && est >= 0.0) {
      // Group count is bounded by the input cardinality; without joint
      // group-key statistics that bound is the estimate (I13: <= child).
      plan->set_estimated_rows(est);
    }
  }

  if (!query.order_by.empty()) {
    std::vector<algebra::Sort::Key> keys;
    for (const xmlql::OrderSpec& spec : query.order_by) {
      std::optional<size_t> slot = plan->schema().SlotOf(spec.variable);
      if (!slot.has_value()) {
        return Status::InvalidArgument("ORDER BY variable $" + spec.variable +
                                       " not bound");
      }
      keys.push_back(algebra::Sort::Key{*slot, spec.descending});
    }
    plan = std::make_unique<algebra::Sort>(std::move(plan), std::move(keys));
    if (cost_based && est >= 0.0) plan->set_estimated_rows(est);  // I13: == child
  }
  if (query.limit >= 0) {
    plan = std::make_unique<algebra::Limit>(std::move(plan),
                                            static_cast<size_t>(query.limit));
    if (cost_based && est >= 0.0) {
      est = std::min(est, static_cast<double>(query.limit));
      plan->set_estimated_rows(est);
    }
  }
  return plan;
}

}  // namespace core
}  // namespace nimble
