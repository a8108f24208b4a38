#ifndef NIMBLE_CORE_ENGINE_H_
#define NIMBLE_CORE_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/operators.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/exec_context.h"
#include "core/fragmenter.h"
#include "core/partial_results.h"
#include "core/plan_cache.h"
#include "core/sql_generator.h"
#include "metadata/catalog.h"
#include "sched/scheduler.h"
#include "xml/node.h"
#include "xmlql/ast.h"

namespace nimble {
namespace core {

/// Engine-wide configuration.
struct EngineOptions {
  /// Push projections/selections into SQL-capable sources. Disabling this
  /// is the E3 ablation: every relational collection is shipped whole.
  bool enable_pushdown = true;
  /// Bind joins: when the distinct join-key values from already-fetched
  /// fragments fit under `bind_join_limit`, push them as `col IN (…)`
  /// semijoin filters into SQL fragments (Adali et al., paper ref [1]).
  bool enable_bind_join = true;
  size_t bind_join_limit = 500;
  /// Fetch independent fragments (and UNION branches) concurrently on a
  /// worker pool. The report's source latency is then the max over
  /// fragments (the critical path) instead of the sum; with a RealClock
  /// the overlap is genuine wall-clock time (bench E6).
  bool parallel_fetch = true;
  /// Worker threads for this engine's fragment scheduling. 0 = share the
  /// process-wide pool (sized to the hardware) with every other engine.
  size_t worker_threads = 0;
  /// Per-query wall budget on `clock` (0 = none). Fetches, retries and
  /// backoff all stop once the deadline passes; the query fails with
  /// Timeout.
  int64_t query_deadline_micros = 0;
  /// Clock for deadlines and retry backoff (not owned; nullptr = process
  /// RealClock). Benchmarks pass their VirtualClock so backoff is charged
  /// to virtual time.
  Clock* clock = nullptr;
  /// Default availability behaviour (overridable per query).
  AvailabilityPolicy availability = AvailabilityPolicy::kFailFast;
  /// Transparent retries per fragment on transient source unavailability
  /// before the availability policy kicks in (0 = fail immediately).
  size_t fetch_retries = 0;
  /// Exponential backoff between retries: initial delay, growth factor,
  /// cap, and jitter (uniform in [0.5, 1.0) of the delay). All bounded by
  /// the query deadline.
  int64_t retry_backoff_micros = 1000;
  double retry_backoff_multiplier = 2.0;
  int64_t retry_backoff_max_micros = 256000;
  bool retry_jitter = true;
  uint64_t retry_jitter_seed = 17;
  /// Maximum depth of mediated-view expansion (cycle guard).
  int max_view_depth = 16;
  /// Rows per TupleBatch flowing between physical-algebra operators
  /// (DESIGN.md §2g). Larger batches amortize per-operator dispatch;
  /// smaller ones bound peak memory per pipeline stage. Clamped to >= 1.
  size_t batch_size = algebra::Operator::kDefaultBatchSize;
  /// Compiled-plan cache entries (canonicalized XML-QL text → parsed AST +
  /// per-branch fragmentation); repeated queries and mediated-view
  /// expansions skip parse/fragment. Clamped to >= 1. Entries are keyed
  /// with the statistics epoch when the cost-based optimizer is on, so
  /// plans optimized under superseded stats are evicted, not served.
  /// Answers are not cached here: the one answer cache is the front end's
  /// (frontend::LensService, DESIGN.md §2c).
  size_t plan_cache_entries = 64;

  // --- Cost-based optimizer (src/opt, DESIGN.md §2h) ---------------------
  /// Drive join order, join build side and bind-join depth from catalog
  /// statistics (cardinality estimates + cost model) instead of the fixed
  /// materialized-size heuristic. Disabling this is the optimizer
  /// ablation: the pre-statistics heuristic plans verbatim, with no
  /// est_rows annotations.
  bool enable_cost_optimizer = true;
  /// Run the three-stage static-analysis pass (strict semantic analysis
  /// with catalog resolution, fragmentation verification with SQL
  /// round-trip, and operator-tree IR invariants — DESIGN.md §2f) on every
  /// compiled program, on every plan-cache hit (stale plans are evicted and
  /// recompiled), and on every built plan before it is drained. Defaults on
  /// in Debug builds; release builds opt in.
#ifdef NDEBUG
  bool verify_plans = false;
#else
  bool verify_plans = true;
#endif

  // --- Admission control & QoS (src/sched, DESIGN.md §2d) ---------------
  /// Token-based concurrency limiter: at most this many queries execute at
  /// once; the rest wait in a bounded weighted-fair admission queue. 0 =
  /// scheduler disabled (submissions execute immediately, the pre-scheduler
  /// behaviour — existing callers are untouched by default).
  size_t max_inflight_queries = 0;
  /// Bounded admission queue: submissions beyond this many queued entries
  /// are shed with ResourceExhausted + a retry_after_micros hint.
  size_t queue_capacity = 64;
  /// Shed at submit when the estimated queue wait already exceeds the
  /// query deadline, and drop deadline-expired entries at dequeue instead
  /// of wasting workers on answers nobody can use.
  bool load_shedding = true;
  /// Weighted-fair share per tenant (deficit round robin): a weight-3
  /// tenant drains 3 queries per 1 of a weight-1 tenant under contention.
  std::map<std::string, uint32_t> tenant_weights;
  uint32_t default_tenant_weight = 1;
};

/// Per-query options.
struct QueryOptions {
  /// When set, overrides the engine's availability policy.
  std::optional<AvailabilityPolicy> availability;
  /// Sources that must answer even under kPartial; if one of these is
  /// down the query fails (paper §3.4: "whether and how to allow the query
  /// to specify behavior when data sources are unavailable").
  std::vector<std::string> required_sources;
  /// Cooperative cancellation: set the pointee to true (from any thread)
  /// and in-flight fetches stop at the next check; the query fails with
  /// Cancelled. Must outlive the Execute call.
  const std::atomic<bool>* cancel = nullptr;
  /// Fair-share accounting bucket for the admission scheduler ("" = the
  /// default tenant). Ignored when the scheduler is disabled.
  std::string tenant;
  /// Strict scheduler priority class: 0 dequeues before 1, and so on.
  int priority = 0;
};

/// What happened while executing a query: the evidence stream for the
/// E1/E3/E5/E6 experiments.
struct ExecutionReport {
  size_t result_count = 0;        ///< instantiated template instances.
  size_t rows_shipped = 0;        ///< records pulled across source wires.
  int64_t source_latency_micros = 0;  ///< max (parallel) or sum (serial).
  size_t fragments_pushed_down = 0;   ///< fragments answered via SQL.
  size_t fragments_fetched = 0;       ///< fragments answered fetch+match.
  size_t fragments_bind_joined = 0;   ///< SQL fragments with pushed IN keys.
  size_t retries = 0;                 ///< transparent fetch retries taken.
  /// Time spent in the admission queue before execution started (charged
  /// against the query deadline; 0 when the scheduler is disabled).
  int64_t queue_wait_micros = 0;
  bool pushdown_hit_index = false;
  std::vector<std::string> sources_contacted;
  CompletenessInfo completeness;
  /// Physical plan rendering; UNION programs concatenate every branch's
  /// plan under "-- branch N --" headers.
  std::string plan;
  /// The same plan annotated with per-operator execution counters
  /// ("{batches=N, rows=M}"), rendered after the plan was drained. Empty
  /// when no mediator plan ran (e.g. a lens-cache hit).
  std::string plan_with_stats;

  std::string Summary() const;
};

/// Variable bindings of one evaluated fragment: the rows the physical
/// algebra passes between operators, before any CONSTRUCT.
struct Bindings {
  algebra::TupleSchema schema;
  algebra::TupleBatch batch;
};

/// One branch's single fragment, answered elsewhere: the scatter-gather
/// coordinator's concatenation of its shards' bindings (DESIGN.md §2i).
/// IntegrationEngine::Execute reads it in place of evaluating the fragment
/// and runs the rest of the branch as for any local query.
struct GatheredFragment {
  /// OK, or why no rows could be gathered (every shard degraded): the
  /// branch then degrades under the availability policy like a failed
  /// fetch.
  Status status;
  /// The rows, under the fragment's schema. The coordinator concatenates
  /// them in an order that depends only on the rows, so the branch answers
  /// alike on any shard count.
  Bindings bindings;
  /// What producing the rows took: rows shipped, source latency, retries,
  /// sources contacted and completeness, plus the EXPLAIN text printed
  /// above the branch's plan (`plan`, `plan_with_stats`).
  ExecutionReport report;
};

/// A query answer: the constructed XML document plus its report. When the
/// answer passed through a materialize::ResultCache (the lens cache) or
/// was served from a materialized view's local copy, `document` is a
/// *frozen* shared snapshot — read it freely, but mutate only through
/// MutableDocument().
/// A bindings request (IntegrationEngine::SubmitBindings) answers with
/// `bindings` and no document; every other path leaves `bindings` empty.
struct QueryResult {
  NodePtr document;
  ExecutionReport report;
  std::optional<Bindings> bindings;

  /// Copy-on-write escape hatch: if `document` is a frozen cache snapshot,
  /// replaces it with a private deep copy (detaching from the cache) and
  /// returns it; otherwise returns `document` unchanged.
  NodePtr MutableDocument() {
    if (document != nullptr && document->frozen()) document = document->Clone();
    return document;
  }
};

/// The async side of `Engine::Submit`: a future-like handle for one
/// submitted query. Wait() blocks until the query completes, is shed by the
/// admission scheduler, or is cancelled; Cancel() drops a still-queued
/// query without executing it and cooperatively stops a running one.
/// Handles are shared_ptr-owned and safe to Wait/Cancel from any thread,
/// but must not outlive the engine that issued them.
class QueryHandle {
 public:
  /// Blocks until the outcome is available, then returns it. The reference
  /// stays valid for the life of the handle.
  const Result<QueryResult>& Wait();
  /// Bounded Wait: blocks at most `timeout_micros` of wall time; returns the
  /// outcome, or nullptr when the query is still running (the scatter-gather
  /// coordinator's straggler bail-out — it Cancel()s and degrades instead of
  /// stalling the whole query on one shard).
  const Result<QueryResult>* WaitFor(int64_t timeout_micros);
  bool done() const;
  /// Queued → dropped with Cancelled (drop path, never executes).
  /// Running → the execution context sees the flag at its next check.
  /// Finished → no-op.
  void Cancel();

 private:
  friend class IntegrationEngine;
  void Fulfill(Result<QueryResult> result) NIMBLE_EXCLUDES(mutex_);

  mutable Mutex mutex_{LockRank::kQueryHandle, "query_handle.latch"};
  CondVar cv_;
  bool done_ NIMBLE_GUARDED_BY(mutex_) = false;
  std::optional<Result<QueryResult>> result_ NIMBLE_GUARDED_BY(mutex_);
  std::atomic<bool> cancel_{false};
  std::shared_ptr<sched::QueryScheduler::Submission> submission_
      NIMBLE_GUARDED_BY(mutex_);
};
using QueryHandlePtr = std::shared_ptr<QueryHandle>;

/// The Nimble integration engine (paper §2.1, Figure 1): parses XML-QL,
/// fragments it by source, compiles relational fragments to SQL, runs the
/// physical-algebra plan in the mediator, and constructs XML results.
///
/// ExecuteText/Submit/SubmitBindings are safe to call from many threads at
/// once (the load balancer and the stress tests do). Configuration is fixed
/// at construction; a different configuration is a new engine over the
/// same catalog.
class IntegrationEngine {
 public:
  /// `catalog` must outlive the engine.
  explicit IntegrationEngine(metadata::Catalog* catalog,
                             EngineOptions options = {});
  ~IntegrationEngine();

  IntegrationEngine(const IntegrationEngine&) = delete;
  IntegrationEngine& operator=(const IntegrationEngine&) = delete;

  /// Parses and executes XML-QL text (a single query or a UNION program).
  /// The compiled-plan cache skips parse/fragment for repeated text; every
  /// call executes (answers are cached above the engine, by the lens
  /// service), so a cancellation flag always reaches the execution.
  Result<QueryResult> ExecuteText(std::string_view xmlql_text,
                                  const QueryOptions& query_options = {});

  /// Asynchronous submit: the query goes through the admission scheduler
  /// (when `max_inflight_queries` > 0) and runs on the worker pool; the
  /// returned handle resolves to the result, a shed ResourceExhausted, a
  /// queue-drop Timeout/Cancelled, or the execution outcome. ExecuteText is
  /// Submit + Wait when the scheduler is enabled, so the two paths shed and
  /// account identically.
  QueryHandlePtr Submit(std::string xmlql_text,
                        const QueryOptions& query_options = {});

  /// Asynchronous bindings request — the scatter-gather shard side. Compiles
  /// `xmlql_text` through the plan cache and evaluates only branch
  /// `branch`, which must have a single pattern: fetch, pattern match and
  /// local conditions. The handle resolves to a QueryResult whose
  /// `bindings` hold the surviving tuples; no aggregation, ORDER BY, LIMIT
  /// or CONSTRUCT runs, and nothing is pushed into the source beyond its
  /// local conditions. Admission, deadlines, cancellation and the
  /// availability policy apply as for Submit.
  QueryHandlePtr SubmitBindings(std::string xmlql_text, size_t branch,
                                const QueryOptions& query_options = {});

  /// Executes a compiled program (GetOrCompile): what ExecuteText runs once
  /// the text compiles, through the same admission control when one is
  /// configured. `gathered` is empty or holds one entry per branch; a set
  /// entry stands in for the fragment of that single-pattern branch, and
  /// the rest of the branch reads its rows in the order given, as it reads
  /// a fetched fragment's in document order.
  Result<QueryResult> Execute(
      const CompiledProgram& compiled, const QueryOptions& query_options,
      const std::vector<std::optional<GatheredFragment>>& gathered = {});

  /// Compiled program for `text`: a plan-cache hit, or parse + fragment
  /// (and, with `verify_plans`, the static-analysis pass against this
  /// engine's catalog) — the same compile ExecuteText runs first, so a
  /// caller planning its own execution sees the same errors.
  Result<std::shared_ptr<const CompiledProgram>> GetOrCompile(
      std::string_view text);

  const EngineOptions& options() const { return options_; }
  metadata::Catalog* catalog() { return catalog_; }

  /// Runs an Analyze() pass over every registered source. Row counts are
  /// exact; per-column detail comes from a sample of each collection. Bumps
  /// the statistics epoch, so cached plans re-optimize under the fresh
  /// stats.
  Status Analyze() {
    constexpr size_t kAnalyzeSampleRows = 10000;
    return catalog_->AnalyzeAllSources(kAnalyzeSampleRows);
  }

  /// The compiled-plan cache; never null.
  PlanCache* plan_cache() { return plan_cache_.get(); }

  /// The admission scheduler; nullptr when `max_inflight_queries` is 0.
  sched::QueryScheduler* scheduler() { return scheduler_.get(); }

  /// Number of queries executed, bindings requests included (load-balancer
  /// bookkeeping, and the evidence that a cache above the engine collapsed
  /// identical requests into one execution).
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

 private:
  /// The bindings produced for one fragment plus accounting; the scan at
  /// the bottom of the mediator plan shares their columns.
  struct FragmentResult {
    algebra::TupleSchema schema;
    algebra::TupleBatch data;
    size_t rows_shipped = 0;
    int64_t latency_micros = 0;
    bool pushed_down = false;
    bool hit_index = false;
    bool bind_joined = false;
    std::vector<const xmlql::Condition*> consumed_conditions;
    std::string label;
    /// Catalog-based cardinality estimate for this fragment's output
    /// (< 0 = no statistics; the optimizer falls back to the materialized
    /// size).
    double est_rows = -1.0;
    /// Collection record count observed while evaluating (pre-filter;
    /// < 0 = not observable, e.g. predicates were pushed down). Feeds
    /// RecordObservedRows for cheap incremental stats upkeep.
    double base_rows = -1.0;
    /// Statistics feedback target ("" = none: views, unknown sources).
    std::string stat_source;
    std::string stat_collection;
    /// Variable → statistics-column mapping from the fragment's pattern.
    std::map<std::string, std::string> var_columns;
  };

  /// The worker pool fragment waves are scheduled on.
  ThreadPool* pool() const;
  /// The clock deadlines/backoff run on.
  Clock* clock() const;

  /// The body of one submitted query: runs with the time it spent queued
  /// and the handle's cancel flag.
  using SubmittedQuery = std::function<Result<QueryResult>(
      int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel)>;

  /// Submit/SubmitBindings core: runs `run` through the admission
  /// scheduler (or straight on the worker pool when it is off) and
  /// resolves the returned handle with its outcome.
  QueryHandlePtr SubmitQuery(SubmittedQuery run,
                             const QueryOptions& query_options);

  /// Synchronous ExecuteText body: compile, then ExecuteCompiled.
  Result<QueryResult> ExecuteTextNow(std::string_view xmlql_text,
                                     const QueryOptions& query_options,
                                     int64_t queue_wait_micros,
                                     const std::atomic<bool>* handle_cancel);

  /// The one execution routine for compiled programs (Execute and
  /// ExecuteTextNow); counts a served query. `queue_wait_micros` (time
  /// already spent queued) is charged against the query deadline;
  /// `handle_cancel` is the async handle's cancel flag.
  Result<QueryResult> ExecuteCompiled(
      const CompiledProgram& compiled, const QueryOptions& query_options,
      const std::vector<std::optional<GatheredFragment>>& gathered,
      int64_t queue_wait_micros, const std::atomic<bool>* handle_cancel);

  /// Synchronous SubmitBindings body.
  Result<QueryResult> ExecuteBindingsNow(std::string_view xmlql_text,
                                         size_t branch,
                                         const QueryOptions& query_options,
                                         int64_t queue_wait_micros,
                                         const std::atomic<bool>* handle_cancel);

  /// A fresh per-query context over this engine's clock, pool, deadline
  /// and retry policy.
  ExecutionContext NewContext(const QueryOptions& query_options,
                              int64_t queue_wait_micros,
                              const std::atomic<bool>* handle_cancel);

  /// Executes a fragmented program (the query itself, or a mediated view
  /// it references at `view_depth` > 0). `fragmentations` lines up with
  /// `program.branches` and points into it; `gathered` is as for Execute.
  Result<QueryResult> ExecuteInternal(
      const xmlql::Program& program,
      const std::vector<Fragmentation>& fragmentations,
      const std::vector<std::optional<GatheredFragment>>& gathered,
      const QueryOptions& query_options, int view_depth,
      ExecutionContext& ctx);

  /// Executes one branch; on success `*out_root` holds its instances under
  /// a "results" root. Fills the branch-local `report` (ordered fields only
  /// — numeric counters go through `ctx`). `fragmentation` was compiled
  /// from `query` and may be shared across concurrent executions
  /// (read-only). A non-null `gathered` is the branch's single fragment.
  Status ExecuteBranch(const xmlql::Query& query,
                       const Fragmentation& fragmentation,
                       const GatheredFragment* gathered,
                       const QueryOptions& query_options, int view_depth,
                       NodePtr* out_root, ExecutionReport* report,
                       ExecutionContext& ctx);

  /// `bind_values` (nullable) carries complete distinct join-key sets from
  /// already-evaluated fragments for semijoin pushdown. `top_pushdown`
  /// (nullable) carries query-level ORDER BY/LIMIT when this fragment is
  /// the entire query. `report` is fragment- or branch-local; safe to call
  /// concurrently for independent fragments with distinct reports.
  Result<FragmentResult> EvaluateFragment(
      const Fragment& fragment, const QueryOptions& query_options,
      int view_depth,
      const std::map<std::string, std::vector<Value>>* bind_values,
      const TopLevelPushdown* top_pushdown, ExecutionReport* report,
      ExecutionContext& ctx);

  /// A gathered fragment as this branch's fragment result: its rows, its
  /// report folded in as for a mediated view, and the collection's catalog
  /// statistics, as a local fetch of the collection would carry.
  Result<FragmentResult> ReadGathered(const GatheredFragment& gathered,
                                      const Fragment& fragment,
                                      ExecutionReport* report,
                                      ExecutionContext& ctx);

  /// Attaches the catalog statistics of `fragment`'s base collection to
  /// `out` (DESIGN.md §2h): the variable→column mapping, the cardinality
  /// estimate after local predicates, and the feedback target. Returns the
  /// statistics; null when the cost optimizer is off or none exist.
  std::shared_ptr<const metadata::CollectionStats> AttachStatistics(
      const Fragment& fragment, FragmentResult* out) const;

  /// Harvests complete distinct join-key sets from `fr` for later bind
  /// joins (scalar bindings only).
  void HarvestBindValues(const FragmentResult& fr,
                         std::map<std::string, std::vector<Value>>* bind_values)
      const;

  /// Builds the join tree over materialized fragments, applying cross
  /// conditions as soon as their variables are covered (the "internal
  /// query optimizer" of §4). With `enable_cost_optimizer` the order,
  /// join build sides and est_rows annotations come from the cost-based
  /// optimizer in src/opt; otherwise the legacy greedy smallest-product
  /// heuristic with shared-variable preference runs unchanged.
  Result<std::unique_ptr<algebra::Operator>> BuildPlan(
      std::vector<FragmentResult> fragments,
      const std::vector<const xmlql::Condition*>& cross_conditions,
      const xmlql::Query& query);

  metadata::Catalog* const catalog_;
  const EngineOptions options_;
  const std::unique_ptr<ThreadPool> owned_pool_;  ///< when worker_threads > 0.
  const std::unique_ptr<PlanCache> plan_cache_;
  std::atomic<uint64_t> queries_served_{0};
  /// Unscheduled Submit tasks still running on the worker pool. The
  /// destructor drains this to zero, so an abandoned handle — e.g. a
  /// scatter-gather straggler that was cancelled and left behind — can
  /// never run its `this` capture against a destroyed engine.
  mutable Mutex inflight_mutex_{LockRank::kEngineInflight, "engine.inflight"};
  CondVar inflight_cv_;
  size_t inflight_submits_ NIMBLE_GUARDED_BY(inflight_mutex_) = 0;
  /// nullptr when `max_inflight_queries` is 0. Declared last: destroyed
  /// first, so shutdown drains queued/in-flight queries while the pool and
  /// the plan cache are still alive.
  const std::unique_ptr<sched::QueryScheduler> scheduler_;
};

}  // namespace core
}  // namespace nimble

#endif  // NIMBLE_CORE_ENGINE_H_
