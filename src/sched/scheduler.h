#ifndef NIMBLE_SCHED_SCHEDULER_H_
#define NIMBLE_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace nimble {
namespace sched {

/// Admission-control and QoS knobs (mirrored by the `EngineOptions` fields
/// of the same names).
struct SchedulerOptions {
  /// Token-based concurrency limiter: at most this many queries execute at
  /// once; the rest wait in the admission queue. Must be >= 1.
  size_t max_inflight_queries = 4;
  /// Bounded admission queue: submissions beyond this many *queued* entries
  /// are rejected with ResourceExhausted (in-flight queries do not count).
  size_t queue_capacity = 64;
  /// Load shedding beyond the queue-full rejection: shed at submit when the
  /// estimated queue wait already exceeds the query's deadline, and drop
  /// deadline-expired entries at dequeue instead of wasting a worker on
  /// them. Off = entries are admitted and dispatched regardless (they then
  /// time out mid-execution — the E6(d) collapse baseline).
  bool load_shedding = true;
  /// Weighted-fair share per tenant (deficit round robin, unit cost per
  /// query): a tenant with weight 3 drains 3 queries for every 1 of a
  /// weight-1 tenant while both have work queued. Unlisted tenants get
  /// `default_tenant_weight`. Weights of 0 are treated as 1.
  std::map<std::string, uint32_t> tenant_weights;
  uint32_t default_tenant_weight = 1;
};

/// What the submitter tells the scheduler about one query.
struct SubmitInfo {
  /// Fair-share accounting bucket; "" is the default tenant.
  std::string tenant;
  /// Strict priority class: class 0 always dequeues before class 1, and so
  /// on; weighted-fair sharing applies between tenants *within* a class.
  int priority = 0;
  /// Relative deadline on the scheduler's clock (0 = none). Queue wait
  /// counts against it: entries that expire while queued are dropped with
  /// Timeout at dequeue, and submissions whose estimated queue wait already
  /// exceeds it are shed with ResourceExhausted.
  int64_t deadline_micros = 0;
  /// Optional caller-owned cancellation flag: checked at dequeue so a query
  /// cancelled while queued is dropped without executing.
  const std::atomic<bool>* cancel = nullptr;
};

/// Per-tenant accounting snapshot.
struct TenantStats {
  std::string tenant;
  uint32_t weight = 1;
  uint64_t submitted = 0;
  uint64_t admitted = 0;   ///< dispatched to a worker.
  uint64_t completed = 0;
  uint64_t shed = 0;       ///< rejected at submit (full / hopeless wait).
  uint64_t dropped = 0;    ///< expired or cancelled while queued.
  size_t queued = 0;       ///< currently waiting.
};

/// Scheduler-wide accounting snapshot (the SystemMonitor gauges).
struct SchedulerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed_queue_full = 0;     ///< rejected: bounded queue at capacity.
  uint64_t shed_wait_deadline = 0;  ///< rejected: queue wait > deadline.
  uint64_t dropped_expired = 0;     ///< deadline passed while queued.
  uint64_t dropped_cancelled = 0;   ///< cancelled while queued.
  size_t queue_depth = 0;
  size_t inflight_queries = 0;
  /// Queue-wait distribution over a sliding window of recent dispatches.
  int64_t queue_wait_p50_micros = 0;
  int64_t queue_wait_p90_micros = 0;
  int64_t queue_wait_p99_micros = 0;
  std::vector<TenantStats> tenants;

  uint64_t TotalShed() const { return shed_queue_full + shed_wait_deadline; }
};

/// Extracts the "retry_after_micros=<n>" hint a shed response carries in
/// its message; returns 0 when absent. Clients use it to back off instead
/// of hammering an overloaded engine.
int64_t RetryAfterMicros(const Status& status);

/// Query admission and scheduling: the layer between the front end and the
/// execution layer. Submissions either start executing immediately (a
/// concurrency token is free), wait in a bounded per-tenant weighted-fair
/// queue, or are shed with ResourceExhausted. The scheduler is policy only:
/// the queries themselves run on the caller-supplied worker pool, and the
/// scheduler knows them as opaque callbacks, so it layers under any
/// executor (`core::IntegrationEngine` wires it behind `Engine::Submit`).
///
/// Thread-safety: Submit, Submission::Cancel and stats() may be called from
/// any thread concurrently.
class QueryScheduler {
 public:
  /// Runs an admitted query; receives the time it waited in queue so the
  /// executor can charge the wait against the query deadline.
  using RunFn = std::function<void(int64_t queue_wait_micros)>;
  /// Consumes a queued entry that will never run (expired, cancelled, or
  /// scheduler shutdown) with the reason. Exactly one of run/drop fires for
  /// every accepted submission.
  using DropFn = std::function<void(const Status& status)>;

  /// A queued-or-running submission. Handles returned by Submit stay valid
  /// until the scheduler is destroyed.
  class Submission {
   public:
    /// Attempts to cancel before dispatch. True = the entry was still
    /// queued and its drop callback has fired with Cancelled; false = the
    /// query was already dispatched (or finished) — cancelling *execution*
    /// is the executor's job (cooperative flags).
    bool Cancel();

   private:
    friend class QueryScheduler;
    QueryScheduler* scheduler_ = nullptr;
    size_t id_ = 0;
  };

  /// `clock` times queue waits and deadlines; `pool` runs admitted queries.
  /// Both must outlive the scheduler.
  QueryScheduler(const SchedulerOptions& options, Clock* clock,
                 ThreadPool* pool);

  /// Drops every queued entry (Cancelled) and waits for in-flight queries
  /// to finish.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admits, queues, or sheds one query. On success exactly one of
  /// `run`/`drop` will eventually be invoked (possibly before Submit
  /// returns, on a pool worker). A shed submission returns
  /// ResourceExhausted carrying a retry_after_micros hint and invokes
  /// neither callback.
  Result<std::shared_ptr<Submission>> Submit(const SubmitInfo& info,
                                             RunFn run, DropFn drop)
      NIMBLE_EXCLUDES(mutex_);

  SchedulerStats stats() const NIMBLE_EXCLUDES(mutex_);
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Entry;
  struct Tenant;
  struct ClassQueue;
  using EntryPtr = std::shared_ptr<Entry>;

  uint32_t WeightOf(const std::string& tenant) const;
  Tenant* GetTenantLocked(const std::string& name) NIMBLE_REQUIRES(mutex_);
  /// Expected time a new submission would spend queued, from the EWMA
  /// service time and the backlog ahead of it. 0 until a completion has
  /// seeded the estimate.
  int64_t EstimatedQueueWaitLocked() const NIMBLE_REQUIRES(mutex_);
  /// Pops the next runnable entry by (priority class, DRR) order, moving
  /// expired/cancelled entries onto `dropped` instead of returning them.
  EntryPtr PopNextLocked(std::vector<std::pair<EntryPtr, Status>>* dropped)
      NIMBLE_REQUIRES(mutex_);
  /// Claims tokens and collects dispatchable entries; the caller fires the
  /// callbacks and pool submissions after unlocking.
  void DispatchLocked(std::vector<EntryPtr>* to_run,
                      std::vector<std::pair<EntryPtr, Status>>* dropped)
      NIMBLE_REQUIRES(mutex_);
  /// Executes one admitted entry on a pool worker and releases its tokens.
  void RunEntry(const EntryPtr& entry) NIMBLE_EXCLUDES(mutex_);
  bool CancelEntry(size_t id) NIMBLE_EXCLUDES(mutex_);

  const SchedulerOptions options_;
  Clock* const clock_;
  ThreadPool* const pool_;

  mutable Mutex mutex_{LockRank::kScheduler, "scheduler.queue"};
  CondVar drained_;  ///< signalled when inflight hits 0.
  /// Entry/Tenant/ClassQueue contents are reached only through the guarded
  /// containers below and are likewise protected by `mutex_`; an Entry's
  /// immutable fields (info, enqueue_micros, run/drop) transfer to the
  /// dispatching thread once claimed (DESIGN.md section 2e).
  bool stopping_ NIMBLE_GUARDED_BY(mutex_) = false;
  size_t next_id_ NIMBLE_GUARDED_BY(mutex_) = 1;
  /// Queued entries by id (for Cancel).
  std::map<size_t, EntryPtr> live_ NIMBLE_GUARDED_BY(mutex_);
  /// Strict priority: lowest class number first; DRR between tenants
  /// within a class.
  std::map<int, ClassQueue> classes_ NIMBLE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Tenant>> tenants_
      NIMBLE_GUARDED_BY(mutex_);
  size_t queue_depth_ NIMBLE_GUARDED_BY(mutex_) = 0;
  size_t inflight_queries_ NIMBLE_GUARDED_BY(mutex_) = 0;
  /// EWMA of observed execution time, the queue-wait estimator's input.
  double avg_service_micros_ NIMBLE_GUARDED_BY(mutex_) = 0;
  /// Sliding window of recent queue waits for the percentile gauges.
  std::vector<int64_t> wait_window_ NIMBLE_GUARDED_BY(mutex_);
  size_t wait_window_next_ NIMBLE_GUARDED_BY(mutex_) = 0;

  uint64_t submitted_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t admitted_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t completed_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t shed_queue_full_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t shed_wait_deadline_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t dropped_expired_ NIMBLE_GUARDED_BY(mutex_) = 0;
  uint64_t dropped_cancelled_ NIMBLE_GUARDED_BY(mutex_) = 0;
};

}  // namespace sched
}  // namespace nimble

#endif  // NIMBLE_SCHED_SCHEDULER_H_
