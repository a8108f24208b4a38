#ifndef NIMBLE_E2EBENCH_HARNESS_H_
#define NIMBLE_E2EBENCH_HARNESS_H_

// The workload-independent part of the benchmark: repeated set-up, the
// timed rounds, counter snapshots, and turning records, spans and counter
// deltas into the end-to-end and per-layer metrics.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/plan_cache.h"
#include "dist/coordinator.h"
#include "materialize/result_cache.h"
#include "trace.h"

namespace nimble {
namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its span dump and per-layer table.
  std::string trace_dir = ".";
};

/// One timed operation as its client saw it.
struct RequestRecord {
  uint64_t id = 0;  ///< also the id of its request span.
  const char* kind = "";  ///< operation type, for the per-kind latency lines.
  int64_t start = 0;
  int64_t end = 0;
  bool is_write = false;
  size_t results = 0;        ///< ExecutionReport::result_count.
  size_t operator_rows = 0;  ///< rows summed over plan_with_stats operators.
  /// ExecutionReport::queue_wait_micros, or -1 when no engine ran it.
  int64_t queue_wait_micros = -1;
  bool fell_back = false;  ///< ran on the coordinator's local engine.
};

/// Failed operations by kind; every one counts against error_rate.
struct Failures {
  uint64_t status = 0;      ///< non-OK status other than shedding.
  uint64_t shed = 0;        ///< ResourceExhausted from admission control.
  uint64_t incomplete = 0;  ///< answer without complete="true".
  uint64_t total() const { return status + shed + incomplete; }
};

/// What one client (or the whole single-client loop) did in a round.
struct RoundLog {
  std::vector<RequestRecord> requests;
  Failures failures;
  /// Counts a failed status by kind (shed or other).
  void Fail(const Status& status);
};

/// Cumulative public counters of the program, summed over its engines.
struct Counters {
  core::PlanCache::Stats plan;        ///< mediator / lens / coordinator-local.
  core::PlanCache::Stats shard_plan;  ///< shard engines.
  materialize::CacheStats result;
  uint64_t shed = 0;
  dist::CoordinatorCounters dist;
};

/// Adds after - before into `total`, for the counters the layer metrics read.
void AddDelta(Counters* total, const Counters& after, const Counters& before);

/// One benchmark workload. The harness calls Setup several times (each
/// call replaces the previous deployment and is timed as set-up), then
/// PrepareChecks once, then RunRound until the time is up. Each Setup and
/// each RunRound runs with every thread of the process pinned to the next
/// CPU (PinProcessToCpu).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Drops the current deployment, if any (untimed).
  virtual void Teardown() = 0;
  /// The program's set-up calls over the already-generated inputs.
  virtual Status Setup() = 0;
  /// Computes the expected answers (untimed, after the last Setup).
  virtual Status PrepareChecks() = 0;
  /// Runs one round of the fixed request mix. A non-OK status is a wrong
  /// answer, never an ordinary failure.
  virtual Status RunRound(int round, RoundLog* log) = 0;
  virtual Counters Snapshot() = 0;
  /// Distinct query texts the workload sends, for core.compile_ms.
  virtual std::vector<std::string> QueryTexts() = 0;
};

std::unique_ptr<Workload> MakeBulkReport(uint64_t seed);
std::unique_ptr<Workload> MakePortalMix(uint64_t seed);
std::unique_ptr<Workload> MakeShardedAggregate(uint64_t seed);

/// Rows summed over every operator's "rows=N" in a plan_with_stats text.
size_t OperatorRows(const std::string& plan_with_stats);

/// Everything a traced run feeds into the per-layer metrics.
struct LayerInput {
  std::vector<RequestRecord> requests;  ///< traced rounds, reads and writes.
  std::vector<Span> spans;              ///< traced rounds.
  Counters delta;                       ///< traced rounds.
  double compile_ms = 0;      ///< mean CompileProgram time per query text.
  double traced_qps = 0;      ///< median over traced rounds.
  double untraced_qps = 0;    ///< median over untraced rounds.
};

using MetricList = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// The per-layer metrics, every one on every workload (0 where the layer
/// did no work).
MetricList LayerMetrics(const LayerInput& in);

/// The per-layer metrics that read 0 on `workload` although it is the
/// workload that exercises their layer (the "on" column of README.md's
/// per-layer table): a decorator, span or counter snapshot that is not
/// wired in. trace.overhead is on for every workload.
std::vector<std::string> UnmeasuredLayers(const std::string& workload,
                                          const MetricList& layers);

/// Runs `workload` per `options` and prints the report; returns the exit
/// code.
int RunBenchmark(Workload& workload, const Options& options);

}  // namespace e2ebench
}  // namespace nimble

#endif  // NIMBLE_E2EBENCH_HARNESS_H_
