#include "trace.h"

#include <cctype>
#include <cstdio>
#include <unordered_map>

namespace nimble {
namespace e2ebench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, int shard)
    : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.id = Tracer::Get().NextId();
  span_.parent = parent;
  span_.shard = shard;
  span_.start = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end = NowNanos();
  Tracer::Get().Record(span_);
}

TimingConnector::TimingConnector(std::unique_ptr<connector::Connector> inner,
                                 int shard)
    : inner_(std::move(inner)), shard_(shard) {}

Result<NodePtr> TimingConnector::FetchCollection(
    const std::string& collection, const connector::RequestContext& ctx) {
  ScopedSpan timer(span::kFetch, Tracer::Get().current_request(), shard_);
  Result<NodePtr> fetched = inner_->FetchCollection(collection, ctx);
  if (fetched.ok()) timer.set_count((*fetched)->children().size());
  return fetched;
}

namespace {

bool IsSelect(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || sql.size() < i + 6) return false;
  std::string head = sql.substr(i, 6);
  for (char& c : head) c = static_cast<char>(std::tolower(c));
  return head == "select";
}

}  // namespace

Result<relational::ResultSet> TimingConnector::ExecuteSql(
    const std::string& sql, const connector::RequestContext& ctx) {
  ScopedSpan timer(IsSelect(sql) ? span::kSql : span::kWrite,
                   Tracer::Get().current_request(), shard_);
  Result<relational::ResultSet> rs = inner_->ExecuteSql(sql, ctx);
  if (rs.ok()) timer.set_count(rs->rows.size());
  return rs;
}

size_t CountNestingViolations(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  size_t violations = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;  // parent from an untraced round
    const Span& p = *it->second;
    if (s.start < p.start || s.end > p.end) ++violations;
  }
  return violations;
}

bool WriteSpanDump(const std::string& path, const std::vector<Span>& spans,
                   int64_t origin) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tname\tstart_us\tend_us\tshard\tcount\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%llu\t%s\t%.3f\t%.3f\t%d\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.end - origin) / 1e3, s.shard,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(out) == 0;
}

}  // namespace e2ebench
}  // namespace nimble
