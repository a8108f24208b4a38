#ifndef NIMBLE_E2EBENCH_TRACE_H_
#define NIMBLE_E2EBENCH_TRACE_H_

// Spans recorded from outside the engine: around the benchmark's own calls
// into a layer (ToXml, FormatResult, NotifySourceUpdated) and inside a
// connector decorator that wraps every source. Spans stay in memory while
// the run measures and are written out when it ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connector/connector.h"

namespace nimble {
namespace e2ebench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names, one per layer boundary the benchmark can see.
namespace span {
inline constexpr const char* kRequest = "request";
inline constexpr const char* kSql = "connector.sql";
inline constexpr const char* kWrite = "connector.write";
inline constexpr const char* kFetch = "connector.fetch";
inline constexpr const char* kSerialize = "xml.serialize";
inline constexpr const char* kFormat = "frontend.format";
inline constexpr const char* kNotify = "metadata.notify";
}  // namespace span

struct Span {
  const char* name = "";
  uint64_t id = 0;
  /// Enclosing span (0 = none). Connector spans get the single client's
  /// in-flight request; with several clients they stay unattributed.
  uint64_t parent = 0;
  int64_t start = 0;
  int64_t end = 0;
  int shard = -1;      ///< shard index for a shard connector, else -1.
  uint64_t count = 0;  ///< rows returned, records fetched, or bytes written.
};

/// Process-wide span sink. Off unless a traced round is running.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The request a single client has in flight (0 = none or several
  /// clients); connector spans on pool threads take it as their parent.
  uint64_t current_request() const {
    return current_request_.load(std::memory_order_relaxed);
  }
  void set_current_request(uint64_t id) {
    current_request_.store(id, std::memory_order_relaxed);
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span);
  /// Moves every recorded span out.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> current_request_{0};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one call when tracing is on; records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, int shard = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(uint64_t count) { span_.count = count; }

 private:
  bool active_;
  Span span_;
};

/// Forwards every call to `inner`, timing FetchCollection and ExecuteSql
/// (SELECTs as connector.sql, anything else as connector.write).
class TimingConnector : public connector::Connector {
 public:
  TimingConnector(std::unique_ptr<connector::Connector> inner, int shard);

  const std::string& name() const override { return inner_->name(); }
  connector::SourceCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  Status Ping() override { return inner_->Ping(); }
  std::vector<std::string> Collections() override {
    return inner_->Collections();
  }
  using Connector::ExecuteSql;
  using Connector::FetchCollection;
  Result<NodePtr> FetchCollection(const std::string& collection,
                                  const connector::RequestContext& ctx) override;
  Result<relational::ResultSet> ExecuteSql(
      const std::string& sql, const connector::RequestContext& ctx) override;
  uint64_t DataVersion() override { return inner_->DataVersion(); }
  connector::FetchStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  const std::unique_ptr<connector::Connector> inner_;
  const int shard_;
};

/// Spans whose parent is recorded but that start before it or end after
/// it. A correct trace has none.
size_t CountNestingViolations(const std::vector<Span>& spans);

/// Writes one span per line: id, parent, name, start and end relative to
/// `origin` in microseconds, shard, count.
bool WriteSpanDump(const std::string& path, const std::vector<Span>& spans,
                   int64_t origin);

}  // namespace e2ebench
}  // namespace nimble

#endif  // NIMBLE_E2EBENCH_TRACE_H_
