#include "harness.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_map>

#include "core/plan_cache.h"
#include "stats.h"
#include "workload_util.h"

namespace nimble {
namespace e2ebench {

namespace {

/// Set-ups per run: at least kMinSetups, then more until they add up to
/// kMinSetupSeconds, so a 0.1 s set-up is sampled ~20 times; setup_s is
/// their interquartile mean.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 2.0;
/// Samples each latency percentile needs beyond it (p90 -> 100 requests).
constexpr size_t kSamplesBeyondPercentile = 10;
/// A run that still lacks samples this long after --seconds stops anyway.
constexpr double kOverrunSeconds = 60;

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Gives every thread of the process `mask`; false if the calling thread
/// kept its old one.
bool SetProcessAffinity(const cpu_set_t& mask) {
  if (sched_setaffinity(0, sizeof(mask), &mask) != 0) return false;
  if (DIR* tasks = opendir("/proc/self/task")) {
    while (const dirent* task = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(task->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
    }
    closedir(tasks);
  }
  return true;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Compares names by content: each translation unit may hold its own copy
/// of a span-name literal (sanitizer builds do not merge them).
bool IsConnectorOrClientSpan(const Span& s) {
  for (const char* name : {span::kSql, span::kFetch, span::kSerialize, span::kFormat}) {
    if (std::strcmp(s.name, name) == 0) return true;
  }
  return false;
}

}  // namespace

int AllowedCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  return CPU_COUNT(&allowed);
}

PinProcessToCpu::PinProcessToCpu(size_t index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed <= 1) return;
  size_t skip = index % static_cast<size_t>(allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = SetProcessAffinity(one);
    return;
  }
}

PinProcessToCpu::~PinProcessToCpu() {
  if (pinned_) SetProcessAffinity(saved_);
}

void RoundLog::Fail(const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    ++failures.shed;
  } else {
    ++failures.status;
  }
}

void AddDelta(Counters* total, const Counters& after, const Counters& before) {
  auto add = [](auto& sum, auto a, auto b) { sum += a - b; };
  add(total->plan.hits, after.plan.hits, before.plan.hits);
  add(total->plan.misses, after.plan.misses, before.plan.misses);
  add(total->plan.stats_evictions, after.plan.stats_evictions,
      before.plan.stats_evictions);
  add(total->shard_plan.hits, after.shard_plan.hits, before.shard_plan.hits);
  add(total->shard_plan.misses, after.shard_plan.misses, before.shard_plan.misses);
  add(total->result.hits, after.result.hits, before.result.hits);
  add(total->result.misses, after.result.misses, before.result.misses);
  add(total->result.coalesced, after.result.coalesced, before.result.coalesced);
  add(total->result.invalidations, after.result.invalidations,
      before.result.invalidations);
  add(total->shed, after.shed, before.shed);
  add(total->dist.scatter_queries, after.dist.scatter_queries,
      before.dist.scatter_queries);
  add(total->dist.fallback_queries, after.dist.fallback_queries,
      before.dist.fallback_queries);
  add(total->dist.subqueries, after.dist.subqueries, before.dist.subqueries);
  add(total->dist.shards_pruned, after.dist.shards_pruned, before.dist.shards_pruned);
  add(total->dist.merge_rows, after.dist.merge_rows, before.dist.merge_rows);
}

size_t OperatorRows(const std::string& plan_with_stats) {
  size_t total = 0;
  size_t pos = 0;
  while ((pos = plan_with_stats.find("rows=", pos)) != std::string::npos) {
    const bool estimate = pos > 0 && plan_with_stats[pos - 1] == '_';
    pos += 5;
    if (!estimate) total += std::strtoull(plan_with_stats.c_str() + pos, nullptr, 10);
  }
  return total;
}

MetricList LayerMetrics(const LayerInput& in) {
  std::vector<const RequestRecord*> reads;
  size_t writes = 0;
  double results = 0;
  double operator_rows = 0;
  for (const RequestRecord& r : in.requests) {
    if (r.is_write) {
      ++writes;
      continue;
    }
    reads.push_back(&r);
    results += static_cast<double>(r.results);
    operator_rows += static_cast<double>(r.operator_rows);
  }
  const double n = static_cast<double>(reads.size());
  const double w = static_cast<double>(writes);

  std::map<std::string, double> total_ms;
  std::map<std::string, double> total_count;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  double unattributed_ms = 0;
  for (const Span& s : in.spans) {
    total_ms[s.name] += Ms(s.end - s.start);
    total_count[s.name] += static_cast<double>(s.count);
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    } else if (IsConnectorOrClientSpan(s)) {
      unattributed_ms += Ms(s.end - s.start);
    }
  }

  // Per-request self time and the shard-fetch shape of scattered requests.
  double self_ms = 0;
  double fetch_max_ms = 0, gather_ms = 0, skew = 0, fallback_ms = 0;
  size_t scattered = 0, skewed = 0, fallbacks = 0;
  std::vector<double> queue_waits;
  for (const RequestRecord* r : reads) {
    const Interval request{r->start, r->end};
    std::vector<Interval> covered;
    std::vector<double> shard_ms;
    auto it = children.find(r->id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        if (!IsConnectorOrClientSpan(*c)) continue;
        covered.push_back({c->start, c->end});
        if (c->shard >= 0) shard_ms.push_back(Ms(c->end - c->start));
      }
    }
    self_ms += Ms(SelfNanos(request, covered));
    if (r->queue_wait_micros >= 0) {
      queue_waits.push_back(static_cast<double>(r->queue_wait_micros) / 1e3);
    }
    if (r->fell_back) {
      ++fallbacks;
      fallback_ms += Ms(r->end - r->start);
    }
    if (!shard_ms.empty()) {
      const double slowest = *std::max_element(shard_ms.begin(), shard_ms.end());
      ++scattered;
      fetch_max_ms += slowest;
      gather_ms += Ms(r->end - r->start) - slowest;
      if (shard_ms.size() >= 2) {
        double mean = 0;
        for (double ms : shard_ms) mean += ms;
        mean /= static_cast<double>(shard_ms.size());
        ++skewed;
        skew += Ratio(slowest, mean);
      }
    }
  }

  const Counters& d = in.delta;
  const double plan_lookups = static_cast<double>(d.plan.hits + d.plan.misses);
  const double shard_lookups =
      static_cast<double>(d.shard_plan.hits + d.shard_plan.misses);
  const double cache_lookups =
      static_cast<double>(d.result.hits + d.result.misses + d.result.coalesced);
  const double dist_queries =
      static_cast<double>(d.dist.scatter_queries + d.dist.fallback_queries);

  const std::string kMs = "ms", kRatio = "ratio", kPerRequest = "count/request";
  MetricList m;
  auto add = [&m](const char* name, double value, const std::string& unit) {
    m.push_back({name, {value, unit}});
  };
  add("connector.sql_ms", Ratio(total_ms[span::kSql], n), kMs);
  add("connector.sql_rows_per_result", Ratio(total_count[span::kSql], results),
      "rows/result");
  add("connector.fetch_ms", Ratio(total_ms[span::kFetch], n), kMs);
  add("connector.write_ms", Ratio(total_ms[span::kWrite], w), kMs);
  add("core.engine_self_ms", Ratio(self_ms - unattributed_ms, n), kMs);
  add("core.plan_cache_hit_ratio", Ratio(static_cast<double>(d.plan.hits), plan_lookups),
      kRatio);
  add("core.plan_cache_stats_evictions",
      Ratio(static_cast<double>(d.plan.stats_evictions), n), kPerRequest);
  add("core.compile_ms",
      Ratio(in.compile_ms * static_cast<double>(d.plan.misses), n), kMs);
  add("algebra.rows_per_result", Ratio(operator_rows, results), "rows/result");
  add("xml.serialize_ms", Ratio(total_ms[span::kSerialize], n), kMs);
  add("xml.output_bytes", Ratio(total_count[span::kSerialize], n), "bytes");
  add("frontend.format_ms", Ratio(total_ms[span::kFormat], n), kMs);
  add("materialize.result_cache_hit_ratio",
      Ratio(static_cast<double>(d.result.hits), cache_lookups), kRatio);
  add("materialize.result_cache_invalidations",
      Ratio(static_cast<double>(d.result.invalidations), n), kPerRequest);
  add("materialize.result_cache_coalesced",
      Ratio(static_cast<double>(d.result.coalesced), n), kPerRequest);
  add("sched.queue_wait_p50_ms", Percentile(queue_waits, 50), kMs);
  add("sched.queue_wait_p90_ms", Percentile(queue_waits, 90), kMs);
  add("sched.shed", Ratio(static_cast<double>(d.shed), n), kPerRequest);
  add("metadata.notify_ms", Ratio(total_ms[span::kNotify], w), kMs);
  add("metadata.epoch_bumps", Ratio(total_count[span::kNotify], w), "count/write");
  add("dist.shard_fetch_max_ms", Ratio(fetch_max_ms, static_cast<double>(scattered)),
      kMs);
  add("dist.shard_skew", Ratio(skew, static_cast<double>(skewed)), kRatio);
  add("dist.gather_ms", Ratio(gather_ms, static_cast<double>(scattered)), kMs);
  add("dist.shard_plan_cache_hit_ratio",
      Ratio(static_cast<double>(d.shard_plan.hits), shard_lookups), kRatio);
  add("dist.fallback_ratio",
      Ratio(static_cast<double>(d.dist.fallback_queries), dist_queries), kRatio);
  add("dist.fallback_ms", Ratio(fallback_ms, static_cast<double>(fallbacks)), kMs);
  add("dist.subqueries_per_query",
      Ratio(static_cast<double>(d.dist.subqueries), n), kPerRequest);
  add("dist.shards_pruned_per_query",
      Ratio(static_cast<double>(d.dist.shards_pruned), n), kPerRequest);
  add("dist.merge_rows_per_query",
      Ratio(static_cast<double>(d.dist.merge_rows), n), kPerRequest);
  add("trace.overhead", Ratio(in.traced_qps, in.untraced_qps), kRatio);
  return m;
}

std::vector<std::string> UnmeasuredLayers(const std::string& workload,
                                          const MetricList& layers) {
  // sched.shed is on no list: admission sheds nothing at this load.
  static const std::map<std::string, std::vector<std::string>> kOn = {
      {"bulk_report",
       {"connector.sql_ms", "connector.sql_rows_per_result", "core.engine_self_ms",
        "algebra.rows_per_result", "xml.serialize_ms", "xml.output_bytes"}},
      {"portal_mix",
       {"frontend.format_ms", "core.plan_cache_hit_ratio",
        "core.plan_cache_stats_evictions", "core.compile_ms",
        "materialize.result_cache_hit_ratio", "materialize.result_cache_invalidations",
        "materialize.result_cache_coalesced", "sched.queue_wait_p50_ms",
        "sched.queue_wait_p90_ms", "connector.write_ms", "metadata.notify_ms",
        "metadata.epoch_bumps"}},
      {"sharded_aggregate",
       {"connector.fetch_ms", "dist.shard_fetch_max_ms", "dist.shard_skew",
        "dist.gather_ms", "dist.shard_plan_cache_hit_ratio", "dist.fallback_ratio",
        "dist.fallback_ms", "dist.subqueries_per_query",
        "dist.shards_pruned_per_query", "dist.merge_rows_per_query"}},
  };
  const auto on = kOn.find(workload);
  std::vector<std::string> unmeasured;
  for (const auto& [name, metric] : layers) {
    const bool exercised =
        name == "trace.overhead" ||
        (on != kOn.end() &&
         std::find(on->second.begin(), on->second.end(), name) != on->second.end());
    if (exercised && metric.first == 0) unmeasured.push_back(name);
  }
  return unmeasured;
}

int RunBenchmark(Workload& workload, const Options& options) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(false);

  // Set-up, repeated; the inputs were generated before this point.
  std::vector<double> setups;
  double setup_total = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || setup_total < kMinSetupSeconds);
       ++i) {
    workload.Teardown();
    Status status;
    {
      PinProcessToCpu pin(static_cast<size_t>(i));
      const int64_t t0 = NowNanos();
      status = workload.Setup();
      setups.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    }
    setup_total += setups.back();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  Status prepared = workload.PrepareChecks();
  if (!prepared.ok()) {
    std::fprintf(stderr, "computing expected answers failed: %s\n",
                 prepared.ToString().c_str());
    return 2;
  }

  // Timed rounds, each with the whole process pinned to the next CPU. A
  // cycle is one round per CPU, and a run measures whole cycles, so every
  // CPU runs the same number of rounds. A traced run alternates untraced and
  // traced cycles so trace.overhead compares like with like.
  const size_t cycle = static_cast<size_t>(std::max(1, AllowedCpus()));
  const size_t period = options.trace ? 2 * cycle : cycle;
  const size_t min_reads = MinSamplesFor(90, kSamplesBeyondPercentile);
  std::vector<RoundSample> untraced_rounds, traced_rounds;
  std::vector<RequestRecord> untraced, traced;
  Failures failures;
  Counters traced_delta;
  size_t untraced_reads = 0, traced_reads = 0;
  const int64_t origin = NowNanos();
  auto elapsed = [origin]() {
    return static_cast<double>(NowNanos() - origin) / 1e9;
  };
  for (size_t round = 0;; ++round) {
    if (round % period == 0) {
      const bool enough = untraced_reads >= min_reads &&
                          (!options.trace || traced_reads >= min_reads);
      if (elapsed() >= options.seconds && enough) break;
      if (elapsed() >= options.seconds + kOverrunSeconds) {
        std::fprintf(stderr, "warning: stopping short of the sample minimum\n");
        break;
      }
    }
    const bool tracing = options.trace && (round / cycle) % 2 == 1;
    RoundLog log;
    const Counters before = workload.Snapshot();
    Status checked;
    RoundSample sample;
    {
      PinProcessToCpu pin(round);
      tracer.set_enabled(tracing);
      const int64_t start = NowNanos();
      checked = workload.RunRound(static_cast<int>(round), &log);
      sample.seconds = static_cast<double>(NowNanos() - start) / 1e9;
      tracer.set_enabled(false);
    }
    if (!checked.ok()) {
      std::printf("WRONG ANSWER in round %zu: %s\n", round,
                  checked.ToString().c_str());
      // The request that returned the wrong answer counts as attempted, not
      // as failed.
      const uint64_t failed = failures.total() + log.failures.total();
      PrintJson(false, untraced.size() + traced.size() + log.requests.size() + failed + 1,
                failed, {});
      return 1;
    }
    if (tracing) AddDelta(&traced_delta, workload.Snapshot(), before);
    sample.ops = log.requests.size();
    failures.status += log.failures.status;
    failures.shed += log.failures.shed;
    failures.incomplete += log.failures.incomplete;
    std::vector<RequestRecord>& sink = tracing ? traced : untraced;
    for (RequestRecord& r : log.requests) {
      if (!r.is_write) sample.latencies_ms.push_back(Ms(r.end - r.start));
      sink.push_back(std::move(r));
    }
    (tracing ? traced_reads : untraced_reads) += sample.latencies_ms.size();
    (tracing ? traced_rounds : untraced_rounds).push_back(std::move(sample));
  }
  const double measured_s = elapsed();
  const uint64_t attempted = untraced.size() + traced.size() + failures.total();

  // End-to-end metrics (untraced rounds only): interquartile means over
  // blocks of whole cycles holding at least min_reads reads each.
  const BlockSummary summary = Summarize(untraced_rounds, cycle, min_reads);
  MetricList end_to_end = {
      {"latency_p50_ms", {summary.p50_ms, "ms"}},
      {"latency_p90_ms", {summary.p90_ms, "ms"}},
      {"throughput_qps", {summary.qps, "1/s"}},
      {"setup_s", {InterquartileMean(setups), "s"}},
      {"peak_rss_mb", {PeakRssMiB(), "MiB"}},
  };

  std::printf("workload %s, seed %llu: %zu untraced + %zu traced rounds in "
              "%.1f s, %zu CPUs, %zu set-ups\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), untraced_rounds.size(),
              traced_rounds.size(), measured_s, cycle, setups.size());
  std::printf("  reads timed untraced: %zu, in %zu blocks of whole cycles with >= %zu "
              "reads (>= %zu beyond p90 in each)\n",
              untraced_reads, summary.blocks, min_reads,
              SamplesBeyond(min_reads, 90));
  for (const auto& [name, metric] : end_to_end) {
    std::printf("  %-22s %12.4f %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<double> write_latencies;
  for (const RequestRecord& r : untraced) {
    if (r.is_write) {
      write_latencies.push_back(Ms(r.end - r.start));
    } else {
      by_kind[r.kind].push_back(Ms(r.end - r.start));
    }
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("    %-20s n=%-6zu p10 %9.3f ms  p50 %9.3f ms  p90 %9.3f ms\n",
                kind.c_str(), ms.size(), Percentile(ms, 10), Percentile(ms, 50),
                Percentile(ms, 90));
  }
  if (!write_latencies.empty()) {
    std::printf("  %-22s %12.4f ms (median of %zu writes)\n",
                "write_latency_p50_ms", Median(write_latencies),
                write_latencies.size());
  }
  std::printf("  %-22s %12.4f (failed %llu of %llu attempted: status=%llu "
              "shed=%llu incomplete=%llu)\n",
              "error_rate", Ratio(static_cast<double>(failures.total()),
                                  static_cast<double>(attempted)),
              static_cast<unsigned long long>(failures.total()),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failures.status),
              static_cast<unsigned long long>(failures.shed),
              static_cast<unsigned long long>(failures.incomplete));

  if (!options.trace) {
    PrintJson(true, attempted, failures.total(), end_to_end);
    return 0;
  }

  // Per-layer metrics (traced rounds only).
  LayerInput in;
  in.requests = std::move(traced);
  in.spans = tracer.Take();
  in.delta = traced_delta;
  in.traced_qps = Summarize(traced_rounds, cycle, min_reads).qps;
  in.untraced_qps = summary.qps;
  {
    std::vector<std::string> texts = workload.QueryTexts();
    double total_ms = 0;
    for (const std::string& text : texts) {
      const int64_t t0 = NowNanos();
      Result<std::shared_ptr<const core::CompiledProgram>> compiled =
          core::CompileProgram(text);
      total_ms += Ms(NowNanos() - t0);
      if (!compiled.ok()) {
        std::fprintf(stderr, "compiling a workload query failed: %s\n",
                     compiled.status().ToString().c_str());
        return 2;
      }
    }
    in.compile_ms = Ratio(total_ms, static_cast<double>(texts.size()));
  }
  const size_t violations = CountNestingViolations(in.spans);
  MetricList layers = LayerMetrics(in);

  const std::string stem = options.trace_dir + "/" + options.workload + ".seed" +
                           std::to_string(options.seed);
  if (!WriteSpanDump(stem + ".spans.tsv", in.spans, origin)) {
    std::fprintf(stderr, "cannot write %s.spans.tsv\n", stem.c_str());
    return 2;
  }
  std::FILE* table = std::fopen((stem + ".layers.tsv").c_str(), "w");
  if (table == nullptr) {
    std::fprintf(stderr, "cannot write %s.layers.tsv\n", stem.c_str());
    return 2;
  }
  std::printf("per-layer metrics (%zu traced requests, %zu spans, %zu nesting "
              "violations):\n",
              in.requests.size(), in.spans.size(), violations);
  std::fprintf(table, "metric\tvalue\tunit\n");
  for (const auto& [name, metric] : layers) {
    std::printf("  %-40s %14.4f %s\n", name.c_str(), metric.first,
                metric.second.c_str());
    std::fprintf(table, "%s\t%.12g\t%s\n", name.c_str(), metric.first,
                 metric.second.c_str());
  }
  std::fclose(table);
  if (violations > 0) {
    std::printf("TRACE ERROR: %zu spans fall outside their parents\n", violations);
    PrintJson(false, attempted, failures.total(), layers);
    return 1;
  }
  const std::vector<std::string> unmeasured = UnmeasuredLayers(options.workload, layers);
  if (!unmeasured.empty()) {
    std::printf("TRACE ERROR: %zu layer metrics read 0 on the workload that "
                "exercises them:",
                unmeasured.size());
    for (const std::string& name : unmeasured) std::printf(" %s", name.c_str());
    std::printf("\n");
    PrintJson(false, attempted, failures.total(), layers);
    return 1;
  }
  PrintJson(true, attempted, failures.total(), layers);
  return 0;
}

}  // namespace e2ebench
}  // namespace nimble
