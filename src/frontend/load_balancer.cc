#include "frontend/load_balancer.h"

#include <algorithm>
#include <functional>

namespace nimble {
namespace frontend {

void LoadBalancer::AddEngine(std::unique_ptr<core::IntegrationEngine> engine) {
  engines_.push_back(std::move(engine));
  busy_micros_.push_back(0);
}

size_t LoadBalancer::PickEngine() {
  MutexLock lock(mutex_);
  if (policy_ == BalancePolicy::kRoundRobin) {
    size_t pick = next_round_robin_;
    next_round_robin_ = (next_round_robin_ + 1) % engines_.size();
    return pick;
  }
  size_t best = 0;
  for (size_t i = 1; i < engines_.size(); ++i) {
    if (busy_micros_[i] < busy_micros_[best]) best = i;
  }
  return best;
}

Result<core::QueryResult> LoadBalancer::Execute(
    std::string_view xmlql_text, const core::QueryOptions& options) {
  if (engines_.empty()) {
    return Status::Internal("load balancer has no engine instances");
  }
  size_t pick = PickEngine();
  Result<core::QueryResult> result =
      engines_[pick]->ExecuteText(xmlql_text, options);
  if (result.ok()) {
    MutexLock lock(mutex_);
    busy_micros_[pick] += result->report.source_latency_micros;
  }
  return result;
}

std::vector<Result<core::QueryResult>> LoadBalancer::ExecuteBatch(
    const std::vector<std::string>& queries,
    const core::QueryOptions& options) {
  std::vector<Result<core::QueryResult>> results(
      queries.size(), Result<core::QueryResult>(Status::Internal("not run")));
  if (engines_.empty()) {
    for (auto& slot : results) {
      slot = Status::Internal("load balancer has no engine instances");
    }
    return results;
  }
  // Submit-all then wait-all from this thread. Fanning the batch out over
  // pool workers that each block in ExecuteText would both bypass the
  // engines' admission limits and deadlock a scheduler whose dispatch
  // tasks share the pool those workers are sleeping on.
  std::vector<size_t> picks(queries.size());
  std::vector<core::QueryHandlePtr> handles;
  handles.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    picks[i] = PickEngine();
    handles.push_back(engines_[picks[i]]->Submit(queries[i], options));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i] = handles[i]->Wait();
    if (results[i].ok()) {
      MutexLock lock(mutex_);
      busy_micros_[picks[i]] += results[i]->report.source_latency_micros;
      continue;
    }
    // Per-engine failure isolation: one overloaded or timed-out instance
    // must not poison its batch slots when the caller asked for partial
    // results. Degrade the slot to an empty partial answer — the same shape
    // the distributed coordinator's straggler path produces — and leave
    // hard errors (parse failures, internal faults) untouched.
    const core::AvailabilityPolicy policy = options.availability.value_or(
        engines_[picks[i]]->options().availability);
    if (core::DegradableCode(results[i].status().code()) &&
        policy == core::AvailabilityPolicy::kPartial) {
      core::QueryResult partial;
      partial.document = Node::Element("results");
      partial.report.completeness.complete = false;
      partial.report.completeness.unavailable_sources.push_back(
          "engine#" + std::to_string(picks[i]));
      partial.report.completeness.StampOn(partial.document.get());
      results[i] = std::move(partial);
    }
  }
  return results;
}

std::vector<int64_t> LoadBalancer::BusyMicrosPerEngine() const {
  MutexLock lock(mutex_);
  return busy_micros_;
}

std::vector<uint64_t> LoadBalancer::QueriesPerEngine() const {
  std::vector<uint64_t> out;
  out.reserve(engines_.size());
  for (const auto& engine : engines_) out.push_back(engine->queries_served());
  return out;
}

int64_t LoadBalancer::MakespanMicros() const {
  MutexLock lock(mutex_);
  int64_t makespan = 0;
  for (int64_t busy : busy_micros_) makespan = std::max(makespan, busy);
  return makespan;
}

}  // namespace frontend
}  // namespace nimble
