#ifndef NIMBLE_FRONTEND_LOAD_BALANCER_H_
#define NIMBLE_FRONTEND_LOAD_BALANCER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/engine.h"

namespace nimble {
namespace frontend {

/// How queries are spread over engine instances.
enum class BalancePolicy {
  kRoundRobin,
  kLeastLoaded,  ///< least cumulative simulated busy-time.
};

/// Dispatches queries over a pool of integration-engine instances (§2.1:
/// "load balancing is provided; multiple instances of the integration
/// engine can be run simultaneously on one or more servers"). Engines
/// share the catalog; the balancer tracks per-instance load so E6 can
/// measure scaling and policy quality.
///
/// Execute/ExecuteBatch are safe to call from many threads at once;
/// AddEngine/set_policy are not — configure the pool before serving.
class LoadBalancer {
 public:
  explicit LoadBalancer(BalancePolicy policy = BalancePolicy::kRoundRobin)
      : policy_(policy) {}

  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  /// Adds an engine instance to the pool (owned).
  void AddEngine(std::unique_ptr<core::IntegrationEngine> engine);

  size_t pool_size() const { return engines_.size(); }
  BalancePolicy policy() const { return policy_; }
  void set_policy(BalancePolicy policy) { policy_ = policy; }

  /// Executes XML-QL text on the chosen instance.
  Result<core::QueryResult> Execute(std::string_view xmlql_text,
                                    const core::QueryOptions& options = {});

  /// Serves a batch of queries concurrently, each dispatched through the
  /// balancing policy and submitted to its engine's admission scheduler
  /// (when configured), so batch traffic respects the same in-flight limits
  /// and shedding as single submits instead of bypassing them. Results line
  /// up with `queries` by index. Concurrency comes from Engine::Submit,
  /// never from blocking extra workers on a batch. Under kPartial a slot
  /// whose engine failed with a core::DegradableCode becomes an empty
  /// answer marked incomplete, missing "engine#<index>".
  std::vector<Result<core::QueryResult>> ExecuteBatch(
      const std::vector<std::string>& queries,
      const core::QueryOptions& options = {});

  /// Instance `i` of the pool (for the SystemMonitor's per-engine
  /// scheduler gauges).
  core::IntegrationEngine* engine(size_t i) { return engines_[i].get(); }

  /// Per-instance cumulative busy time (source latency charged to the
  /// instance that served each query) — the load distribution evidence.
  std::vector<int64_t> BusyMicrosPerEngine() const;
  std::vector<uint64_t> QueriesPerEngine() const;

  /// Makespan under the recorded assignment: the busiest instance's total.
  int64_t MakespanMicros() const;

 private:
  size_t PickEngine() NIMBLE_EXCLUDES(mutex_);

  /// `policy_` and `engines_` are configure-before-serve (see the class
  /// contract): AddEngine/set_policy run before queries flow, so they stay
  /// unguarded by design (DESIGN.md section 2e).
  // nimble-lint: unguarded(configure-before-serve: set_policy runs before queries flow)
  BalancePolicy policy_;
  // nimble-lint: unguarded(configure-before-serve: AddEngine runs before queries flow)
  std::vector<std::unique_ptr<core::IntegrationEngine>> engines_;
  mutable Mutex mutex_{LockRank::kLoadBalancer, "load_balancer.dispatch"};
  std::vector<int64_t> busy_micros_ NIMBLE_GUARDED_BY(mutex_);
  size_t next_round_robin_ NIMBLE_GUARDED_BY(mutex_) = 0;
};

}  // namespace frontend
}  // namespace nimble

#endif  // NIMBLE_FRONTEND_LOAD_BALANCER_H_
