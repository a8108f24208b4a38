#include "sched/scheduler.h"

#include <algorithm>
#include <cstdlib>

namespace nimble {
namespace sched {

namespace {

/// Sliding-window size for the queue-wait percentile gauges.
constexpr size_t kWaitWindow = 512;

constexpr char kRetryAfterKey[] = "retry_after_micros=";

std::string WithRetryAfter(std::string message, int64_t retry_after_micros) {
  message += "; ";
  message += kRetryAfterKey;
  message += std::to_string(retry_after_micros);
  return message;
}

}  // namespace

int64_t RetryAfterMicros(const Status& status) {
  const std::string& message = status.message();
  size_t pos = message.find(kRetryAfterKey);
  if (pos == std::string::npos) return 0;
  return std::atoll(message.c_str() + pos + sizeof(kRetryAfterKey) - 1);
}

/// One submission: queue bookkeeping plus the two continuation callbacks.
struct QueryScheduler::Entry {
  size_t id = 0;
  SubmitInfo info;
  int64_t enqueue_micros = 0;
  int64_t deadline_abs_micros = 0;  ///< 0 = none.
  RunFn run;
  DropFn drop;
  bool claimed = false;  ///< popped for dispatch; no longer cancellable.
  bool dropped = false;  ///< drop callback fired (or is being fired).
};

struct QueryScheduler::Tenant {
  /// This tenant's state within one priority class.
  struct PerClass {
    std::deque<EntryPtr> queue;
    uint64_t deficit = 0;  ///< DRR credits (unit cost per query).
    bool in_ring = false;  ///< member of the class's active-tenant ring.
  };

  std::string name;
  uint32_t weight = 1;
  std::map<int, PerClass> classes;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t dropped = 0;
  size_t queued = 0;
};

/// Active tenants of one priority class, in deficit-round-robin order.
struct QueryScheduler::ClassQueue {
  std::deque<Tenant*> ring;
};

bool QueryScheduler::Submission::Cancel() {
  return scheduler_ != nullptr && scheduler_->CancelEntry(id_);
}

QueryScheduler::QueryScheduler(const SchedulerOptions& options, Clock* clock,
                               ThreadPool* pool)
    : options_([&options] {
        SchedulerOptions sanitized = options;
        if (sanitized.max_inflight_queries == 0) {
          sanitized.max_inflight_queries = 1;
        }
        if (sanitized.default_tenant_weight == 0) {
          sanitized.default_tenant_weight = 1;
        }
        return sanitized;
      }()),
      clock_(clock),
      pool_(pool) {
  wait_window_.reserve(kWaitWindow);
}

QueryScheduler::~QueryScheduler() {
  std::vector<std::pair<EntryPtr, Status>> dropped;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    for (auto& [id, entry] : live_) {
      if (entry->dropped) continue;
      entry->dropped = true;
      Tenant* tenant = GetTenantLocked(entry->info.tenant);
      tenant->queued--;
      tenant->dropped++;
      dropped_cancelled_++;
      dropped.emplace_back(entry,
                           Status::Cancelled("scheduler shut down"));
    }
    live_.clear();
    queue_depth_ = 0;
  }
  for (auto& [entry, status] : dropped) entry->drop(status);
  MutexLock lock(mutex_);
  while (inflight_queries_ != 0) drained_.Wait(mutex_);
}

uint32_t QueryScheduler::WeightOf(const std::string& tenant) const {
  auto it = options_.tenant_weights.find(tenant);
  uint32_t weight =
      it == options_.tenant_weights.end() ? options_.default_tenant_weight
                                          : it->second;
  return weight == 0 ? 1 : weight;
}

QueryScheduler::Tenant* QueryScheduler::GetTenantLocked(
    const std::string& name) {
  std::unique_ptr<Tenant>& slot = tenants_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Tenant>();
    slot->name = name;
    slot->weight = WeightOf(name);
  }
  return slot.get();
}

int64_t QueryScheduler::EstimatedQueueWaitLocked() const {
  if (avg_service_micros_ <= 0) return 0;
  double workers = static_cast<double>(options_.max_inflight_queries);
  // Work ahead of a new arrival: the whole queue plus (on average) half of
  // whatever is already executing.
  double backlog = static_cast<double>(queue_depth_) +
                   0.5 * static_cast<double>(inflight_queries_);
  return static_cast<int64_t>(backlog * avg_service_micros_ / workers);
}

Result<std::shared_ptr<QueryScheduler::Submission>> QueryScheduler::Submit(
    const SubmitInfo& info, RunFn run, DropFn drop) {
  std::vector<EntryPtr> to_run;
  std::vector<std::pair<EntryPtr, Status>> dropped;
  auto submission = std::make_shared<Submission>();
  {
    MutexLock lock(mutex_);
    if (stopping_) return Status::Cancelled("scheduler is shutting down");
    Tenant* tenant = GetTenantLocked(info.tenant);
    submitted_++;
    tenant->submitted++;

    if (queue_depth_ >= options_.queue_capacity) {
      shed_queue_full_++;
      tenant->shed++;
      int64_t hint = std::max<int64_t>(EstimatedQueueWaitLocked(), 1000);
      return Status::ResourceExhausted(WithRetryAfter(
          "admission queue full (" + std::to_string(queue_depth_) + "/" +
              std::to_string(options_.queue_capacity) + " queued)",
          hint));
    }
    if (options_.load_shedding && info.deadline_micros > 0) {
      int64_t estimate = EstimatedQueueWaitLocked();
      if (estimate > info.deadline_micros) {
        // The query would expire in queue anyway; shed it now so the
        // client can back off instead of burning its budget waiting.
        shed_wait_deadline_++;
        tenant->shed++;
        return Status::ResourceExhausted(WithRetryAfter(
            "estimated queue wait " + std::to_string(estimate) +
                "us exceeds the query deadline (" +
                std::to_string(info.deadline_micros) + "us)",
            estimate));
      }
    }

    auto entry = std::make_shared<Entry>();
    entry->id = next_id_++;
    entry->info = info;
    entry->enqueue_micros = clock_->NowMicros();
    if (info.deadline_micros > 0) {
      entry->deadline_abs_micros = entry->enqueue_micros + info.deadline_micros;
    }
    entry->run = std::move(run);
    entry->drop = std::move(drop);
    live_[entry->id] = entry;

    auto& pc = tenant->classes[info.priority];
    pc.queue.push_back(entry);
    if (!pc.in_ring) {
      pc.in_ring = true;
      classes_[info.priority].ring.push_back(tenant);
    }
    queue_depth_++;
    tenant->queued++;

    submission->scheduler_ = this;
    submission->id_ = entry->id;
    DispatchLocked(&to_run, &dropped);
  }
  for (auto& [entry, status] : dropped) entry->drop(status);
  for (EntryPtr& entry : to_run) {
    pool_->Submit([this, entry] { RunEntry(entry); });
  }
  return submission;
}

QueryScheduler::EntryPtr QueryScheduler::PopNextLocked(
    std::vector<std::pair<EntryPtr, Status>>* dropped) {
  // Strict priority across classes; DRR between tenants within a class.
  for (auto& [cls, class_queue] : classes_) {
    std::deque<Tenant*>& ring = class_queue.ring;
    while (!ring.empty()) {
      Tenant* tenant = ring.front();
      auto& pc = tenant->classes[cls];
      // Clear cancelled tombstones and shed hopeless heads before spending
      // deficit: a dropped entry never consumes a worker *or* a credit.
      while (!pc.queue.empty()) {
        EntryPtr head = pc.queue.front();
        if (head->dropped) {
          pc.queue.pop_front();
          continue;
        }
        if (head->info.cancel != nullptr &&
            head->info.cancel->load(std::memory_order_relaxed)) {
          head->dropped = true;
          live_.erase(head->id);
          queue_depth_--;
          tenant->queued--;
          tenant->dropped++;
          dropped_cancelled_++;
          dropped->emplace_back(
              head, Status::Cancelled("query cancelled while queued"));
          pc.queue.pop_front();
          continue;
        }
        int64_t now = clock_->NowMicros();
        if (options_.load_shedding && head->deadline_abs_micros > 0 &&
            now >= head->deadline_abs_micros) {
          head->dropped = true;
          live_.erase(head->id);
          queue_depth_--;
          tenant->queued--;
          tenant->dropped++;
          dropped_expired_++;
          dropped->emplace_back(
              head, Status::Timeout(
                        "query deadline expired after " +
                        std::to_string(now - head->enqueue_micros) +
                        "us in the admission queue"));
          pc.queue.pop_front();
          continue;
        }
        break;
      }
      if (pc.queue.empty()) {
        pc.deficit = 0;
        pc.in_ring = false;
        ring.pop_front();
        continue;
      }
      if (pc.deficit == 0) {
        // Top up and move to the back: a weight-3 tenant banks 3 credits
        // per round, a weight-1 tenant banks 1 — the 3:1 drain ratio.
        pc.deficit = std::max<uint32_t>(tenant->weight, 1);
        ring.pop_front();
        ring.push_back(tenant);
        continue;
      }
      EntryPtr entry = pc.queue.front();
      pc.queue.pop_front();
      pc.deficit--;
      entry->claimed = true;
      live_.erase(entry->id);
      queue_depth_--;
      tenant->queued--;
      if (pc.queue.empty()) {
        pc.deficit = 0;
        pc.in_ring = false;
        ring.pop_front();
      }
      return entry;
    }
  }
  return nullptr;
}

void QueryScheduler::DispatchLocked(
    std::vector<EntryPtr>* to_run,
    std::vector<std::pair<EntryPtr, Status>>* dropped) {
  if (stopping_) return;
  while (inflight_queries_ < options_.max_inflight_queries &&
         queue_depth_ > 0) {
    EntryPtr entry = PopNextLocked(dropped);
    if (entry == nullptr) break;  // only dropped entries were left
    inflight_queries_++;
    admitted_++;
    GetTenantLocked(entry->info.tenant)->admitted++;
    to_run->push_back(entry);
  }
}

void QueryScheduler::RunEntry(const EntryPtr& entry) {
  int64_t start = clock_->NowMicros();
  int64_t wait = std::max<int64_t>(start - entry->enqueue_micros, 0);
  {
    MutexLock lock(mutex_);
    if (wait_window_.size() < kWaitWindow) {
      wait_window_.push_back(wait);
    } else {
      wait_window_[wait_window_next_] = wait;
      wait_window_next_ = (wait_window_next_ + 1) % kWaitWindow;
    }
  }
  entry->run(wait);
  // On a VirtualClock concurrent queries charge one shared counter, so this
  // over-reads service time under concurrency — acceptable for an EWMA that
  // only feeds the shed-at-submit heuristic.
  int64_t service = std::max<int64_t>(clock_->NowMicros() - start, 0);

  std::vector<EntryPtr> to_run;
  std::vector<std::pair<EntryPtr, Status>> dropped;
  {
    MutexLock lock(mutex_);
    inflight_queries_--;
    completed_++;
    GetTenantLocked(entry->info.tenant)->completed++;
    avg_service_micros_ =
        avg_service_micros_ <= 0
            ? static_cast<double>(service)
            : 0.8 * avg_service_micros_ + 0.2 * static_cast<double>(service);
    DispatchLocked(&to_run, &dropped);
    if (inflight_queries_ == 0) drained_.NotifyAll();
  }
  for (auto& [e, status] : dropped) e->drop(status);
  for (EntryPtr& e : to_run) {
    pool_->Submit([this, e] { RunEntry(e); });
  }
}

bool QueryScheduler::CancelEntry(size_t id) {
  EntryPtr entry;
  {
    MutexLock lock(mutex_);
    auto it = live_.find(id);
    if (it == live_.end()) return false;  // already dispatched or dropped
    entry = it->second;
    entry->dropped = true;
    live_.erase(it);
    queue_depth_--;
    Tenant* tenant = GetTenantLocked(entry->info.tenant);
    tenant->queued--;
    tenant->dropped++;
    dropped_cancelled_++;
  }
  entry->drop(Status::Cancelled("query cancelled while queued"));
  return true;
}

SchedulerStats QueryScheduler::stats() const {
  SchedulerStats out;
  std::vector<int64_t> waits;
  {
    MutexLock lock(mutex_);
    out.submitted = submitted_;
    out.admitted = admitted_;
    out.completed = completed_;
    out.shed_queue_full = shed_queue_full_;
    out.shed_wait_deadline = shed_wait_deadline_;
    out.dropped_expired = dropped_expired_;
    out.dropped_cancelled = dropped_cancelled_;
    out.queue_depth = queue_depth_;
    out.inflight_queries = inflight_queries_;
    for (const auto& [name, tenant] : tenants_) {
      TenantStats ts;
      ts.tenant = name;
      ts.weight = tenant->weight;
      ts.submitted = tenant->submitted;
      ts.admitted = tenant->admitted;
      ts.completed = tenant->completed;
      ts.shed = tenant->shed;
      ts.dropped = tenant->dropped;
      ts.queued = tenant->queued;
      out.tenants.push_back(std::move(ts));
    }
    waits = wait_window_;
  }
  if (!waits.empty()) {
    std::sort(waits.begin(), waits.end());
    auto pct = [&waits](double p) {
      size_t index = static_cast<size_t>(p * static_cast<double>(waits.size() - 1));
      return waits[index];
    };
    out.queue_wait_p50_micros = pct(0.50);
    out.queue_wait_p90_micros = pct(0.90);
    out.queue_wait_p99_micros = pct(0.99);
  }
  return out;
}

}  // namespace sched
}  // namespace nimble
