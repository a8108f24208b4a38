#ifndef NIMBLE_CONNECTOR_CONNECTOR_H_
#define NIMBLE_CONNECTOR_CONNECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "relational/database.h"
#include "xml/node.h"

namespace nimble {
namespace connector {

/// What a source can do, consulted by the mediator's compiler when deciding
/// how much of a query fragment to push down (paper §2.1: the compiler
/// considers "the type of the underlying source … and the presence of
/// indices"; §4: "an internal query optimizer that can address the varying
/// query capabilities of different data sources").
struct SourceCapabilities {
  bool supports_sql = false;         ///< accepts pushed-down SELECT text.
  bool supports_predicates = false;  ///< can filter inside the source.
  /// (table, column) pairs with a source-side index.
  std::vector<std::pair<std::string, std::string>> indexed_columns;

  bool HasIndexOn(const std::string& table, const std::string& column) const {
    for (const auto& [t, c] : indexed_columns) {
      if (t == table && c == column) return true;
    }
    return false;
  }
};

/// Per-call transfer statistics, aggregated by the decorators and surfaced
/// in query execution reports (E3 measures rows shipped; E1/E5/E6 measure
/// latency).
struct FetchStats {
  size_t calls = 0;
  size_t rows_shipped = 0;   ///< records crossing the source boundary.
  int64_t latency_micros = 0;  ///< simulated wire+source time charged.

  void Add(const FetchStats& other) {
    calls += other.calls;
    rows_shipped += other.rows_shipped;
    latency_micros += other.latency_micros;
  }
  void Reset() { *this = FetchStats{}; }
};

/// Per-request execution context, threaded from the engine's
/// ExecutionContext down into every source call. Connectors check the
/// deadline and cancellation flag before doing work (cooperative
/// cancellation) and report the cost of *this call alone* through
/// `call_stats` — the cumulative per-connector counters cannot attribute
/// cost to a fragment once fetches run concurrently.
struct RequestContext {
  /// Cooperative cancellation flag owned by the query's ExecutionContext.
  const std::atomic<bool>* cancelled = nullptr;
  /// Absolute deadline on `clock` (0 = none).
  int64_t deadline_micros = 0;
  const Clock* clock = nullptr;
  /// When set, the connector adds this call's own cost here (thread-safe:
  /// the engine hands each fragment its own instance).
  FetchStats* call_stats = nullptr;
};

/// Abstract wrapper around one data source. All sources can serve their
/// collections as XML record trees (the unifying model, paper §1); SQL-
/// capable sources additionally accept pushed-down SELECT statements.
///
/// Thread-safety contract: `FetchCollection`, `ExecuteSql`, `Ping`,
/// `Collections`, `stats` and `ResetStats` may be called from any number of
/// threads concurrently (the engine fans fragments out over a pool).
/// Mutating registration/administration calls on concrete connectors
/// (PutDocument, PutCsv, MapCollection, direct Database/HStore writes) must
/// not race with in-flight queries unless the connector documents
/// otherwise.
class Connector {
 public:
  virtual ~Connector() = default;

  virtual const std::string& name() const = 0;
  virtual SourceCapabilities capabilities() const = 0;

  /// Liveness probe. Returns Unavailable when the source is offline —
  /// the engine's partial-results machinery (§3.4) keys off this code.
  virtual Status Ping() { return Status::OK(); }

  /// Names of the collections (tables, documents, subtrees) exposed.
  virtual std::vector<std::string> Collections() = 0;

  /// Fetches the entire collection as an XML tree whose children are the
  /// records. The tree is a frozen snapshot (Node::Freeze), often the
  /// source's stored tree itself, shared with concurrent queries: read it
  /// freely, and Clone() it to edit.
  virtual Result<NodePtr> FetchCollection(const std::string& collection,
                                          const RequestContext& ctx) = 0;
  Result<NodePtr> FetchCollection(const std::string& collection) {
    return FetchCollection(collection, RequestContext{});
  }

  /// Executes pushed-down SQL. Default: unsupported.
  virtual Result<relational::ResultSet> ExecuteSql(const std::string& sql,
                                                   const RequestContext& ctx);
  Result<relational::ResultSet> ExecuteSql(const std::string& sql) {
    return ExecuteSql(sql, RequestContext{});
  }

  /// Monotone data-version cookie for cache/materialization staleness.
  virtual uint64_t DataVersion() = 0;

  /// Snapshot of cumulative transfer statistics since the last ResetStats().
  virtual FetchStats stats() const NIMBLE_EXCLUDES(stats_mutex_) {
    MutexLock lock(stats_mutex_);
    return stats_;
  }
  virtual void ResetStats() NIMBLE_EXCLUDES(stats_mutex_) {
    MutexLock lock(stats_mutex_);
    stats_.Reset();
  }

 protected:
  /// Pre-flight check shared by all connectors: trips on cooperative
  /// cancellation or an expired deadline before any source work is done.
  static Status Admit(const RequestContext& ctx) {
    if (ctx.cancelled != nullptr &&
        ctx.cancelled->load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled before source call");
    }
    if (ctx.deadline_micros > 0 && ctx.clock != nullptr &&
        ctx.clock->NowMicros() >= ctx.deadline_micros) {
      return Status::Timeout("query deadline exceeded before source call");
    }
    return Status::OK();
  }

  /// Thread-safe accumulation into the cumulative counters and, when the
  /// caller asked for per-call attribution, into `ctx.call_stats`.
  void AddStats(const RequestContext& ctx, const FetchStats& delta)
      NIMBLE_EXCLUDES(stats_mutex_) {
    {
      MutexLock lock(stats_mutex_);
      stats_.Add(delta);
    }
    if (ctx.call_stats != nullptr) ctx.call_stats->Add(delta);
  }

  /// Innermost lock of the connector stack (rank kConnectorStats): held
  /// only for the counter bump, never across source work.
  mutable Mutex stats_mutex_{LockRank::kConnectorStats, "connector.stats"};
  FetchStats stats_ NIMBLE_GUARDED_BY(stats_mutex_);
};

}  // namespace connector
}  // namespace nimble

#endif  // NIMBLE_CONNECTOR_CONNECTOR_H_
