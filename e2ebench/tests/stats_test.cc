// The benchmark's own arithmetic: the percentile sample-count rule, span
// self time, ratio bases, and reading operator rows out of EXPLAIN text.

#include <gtest/gtest.h>

#include "harness.h"
#include "stats.h"

namespace nimble {
namespace e2ebench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // nearest rank: the lower middle.
}

TEST(PercentileTest, TenSamplesBeyondP90NeedsOneHundred) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(0, 90), 0u);
  EXPECT_EQ(MinSamplesFor(90, 10), 100u);
  EXPECT_EQ(MinSamplesFor(50, 10), 20u);
  EXPECT_EQ(MinSamplesFor(99, 10), 1000u);
  // The rule holds at the minimum and above it.
  for (size_t n = 100; n < 400; ++n) EXPECT_GE(SamplesBeyond(n, 90), 10u) << n;
}

/// A round of `reads` reads with latencies 1..reads ms (+ `slow`), in 1 s.
RoundSample Round(int reads, double slow = 0) {
  RoundSample r;
  for (int i = 1; i <= reads; ++i) r.latencies_ms.push_back(i + slow);
  r.ops = static_cast<size_t>(reads);
  r.seconds = 1;
  return r;
}

TEST(BlocksTest, WholeCyclesWithEnoughReads) {
  // 4 CPUs, 30 reads a round: a cycle holds 120 reads, one block each.
  std::vector<RoundSample> rounds(8, Round(30));
  std::vector<RoundSample> blocks = Blocks(rounds, 4, 100);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].latencies_ms.size(), 120u);
  EXPECT_EQ(blocks[0].ops, 120u);
  EXPECT_DOUBLE_EQ(blocks[0].seconds, 4);
  // 10 reads a round: a block takes three cycles (120 reads); the two
  // cycles left over join the last block instead of forming a short one.
  rounds.assign(20, Round(10));
  blocks = Blocks(rounds, 4, 100);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].latencies_ms.size(), 200u);
  rounds.assign(24, Round(10));
  blocks = Blocks(rounds, 4, 100);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1].latencies_ms.size(), 120u);
  // Too few reads for one block: everything is one block.
  EXPECT_EQ(Blocks({Round(3)}, 4, 100).size(), 1u);
  EXPECT_TRUE(Blocks({}, 4, 100).empty());
}

TEST(BlocksTest, InterquartileMean) {
  EXPECT_EQ(InterquartileMean({}), 0);
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 2, 6}), 3);  // below four: the mean.
  // Eight values: two dropped at each end, the middle four averaged.
  EXPECT_DOUBLE_EQ(InterquartileMean({8, -50, 3, 100, 2, 7, 1, 4}), 4);
}

TEST(BlocksTest, SummaryIgnoresASlowQuarter) {
  std::vector<RoundSample> rounds;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (int cpu = 0; cpu < 2; ++cpu) rounds.push_back(Round(50));
  }
  BlockSummary s = Summarize(rounds, 2, 100);
  EXPECT_EQ(s.blocks, 8u);
  EXPECT_EQ(s.p50_ms, 25);  // each block holds 1..50 twice.
  EXPECT_EQ(s.p90_ms, 45);
  EXPECT_DOUBLE_EQ(s.qps, 50);  // 100 operations in 2 s.
  // The host slowed down during the first two blocks: the figures hold.
  for (int i = 0; i < 4; ++i) {
    rounds[i] = Round(50, 1000);
    rounds[i].seconds = 3;
  }
  s = Summarize(rounds, 2, 100);
  EXPECT_EQ(s.p50_ms, 25);
  EXPECT_EQ(s.p90_ms, 45);
  EXPECT_DOUBLE_EQ(s.qps, 50);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  const Interval parent{0, 100};
  EXPECT_EQ(SelfNanos(parent, {}), 100);
  EXPECT_EQ(SelfNanos(parent, {{10, 30}}), 80);
  // Overlapping children (parallel connector calls) count once.
  EXPECT_EQ(SelfNanos(parent, {{10, 40}, {20, 50}, {60, 70}}), 50);
  // A child nested in another adds nothing.
  EXPECT_EQ(SelfNanos(parent, {{10, 60}, {20, 30}}), 50);
  // Children are clipped to the parent.
  EXPECT_EQ(SelfNanos(parent, {{-20, 10}, {90, 150}}), 80);
  EXPECT_EQ(CoveredNanos(parent, {{0, 100}, {0, 100}}), 100);
}

TEST(RatioTest, ZeroBaseMeansNoWork) {
  EXPECT_EQ(Ratio(5, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
}

TEST(LayerMetricsTest, RatioBases) {
  LayerInput in;
  RequestRecord read;
  read.id = 1;
  read.start = 0;
  read.end = 10'000'000;  // 10 ms
  read.results = 4;
  read.operator_rows = 12;
  in.requests = {read, read};
  in.requests[1].id = 2;
  RequestRecord write;
  write.is_write = true;
  in.requests.push_back(write);
  // Request 1: a 4 ms SQL call returning 8 rows and a 1 ms serialize of 100
  // bytes. Request 2: a 2 ms SQL call returning 8 rows.
  in.spans = {{span::kSql, 11, 1, 1'000'000, 5'000'000, -1, 8},
              {span::kSerialize, 12, 1, 8'000'000, 9'000'000, -1, 100},
              {span::kSql, 13, 2, 1'000'000, 3'000'000, -1, 8},
              {span::kWrite, 14, 0, 0, 3'000'000, -1, 1},
              {span::kNotify, 15, 0, 3'000'000, 4'000'000, -1, 2}};
  in.delta.plan.hits = 3;
  in.delta.plan.misses = 1;
  in.compile_ms = 0.5;
  in.traced_qps = 90;
  in.untraced_qps = 100;

  std::map<std::string, double> m;
  for (const auto& [name, metric] : LayerMetrics(in)) m[name] = metric.first;
  EXPECT_DOUBLE_EQ(m["connector.sql_ms"], 3.0);             // (4 + 2) / 2 reads
  EXPECT_DOUBLE_EQ(m["connector.sql_rows_per_result"], 2);  // 16 rows / 8 results
  EXPECT_DOUBLE_EQ(m["connector.write_ms"], 3.0);           // per write
  EXPECT_DOUBLE_EQ(m["core.engine_self_ms"], 6.5);  // ((10-5) + (10-2)) / 2
  EXPECT_DOUBLE_EQ(m["algebra.rows_per_result"], 3);  // 24 rows / 8 results
  EXPECT_DOUBLE_EQ(m["xml.serialize_ms"], 0.5);
  EXPECT_DOUBLE_EQ(m["xml.output_bytes"], 50);
  EXPECT_DOUBLE_EQ(m["core.plan_cache_hit_ratio"], 0.75);  // of lookups
  EXPECT_DOUBLE_EQ(m["core.compile_ms"], 0.25);  // 0.5 ms x 1 miss / 2 reads
  EXPECT_DOUBLE_EQ(m["metadata.notify_ms"], 1);    // per write
  EXPECT_DOUBLE_EQ(m["metadata.epoch_bumps"], 2);  // per write
  EXPECT_DOUBLE_EQ(m["trace.overhead"], 0.9);
  EXPECT_EQ(m["materialize.result_cache_hit_ratio"], 0);  // no lookups
}

TEST(LayerMetricsTest, ShardFetchShape) {
  LayerInput in;
  RequestRecord r;
  r.id = 1;
  r.start = 0;
  r.end = 10'000'000;
  in.requests = {r};
  in.spans = {{span::kFetch, 2, 1, 0, 2'000'000, 0, 10},
              {span::kFetch, 3, 1, 0, 4'000'000, 1, 10},
              {span::kFetch, 4, 1, 0, 6'000'000, 2, 10}};
  std::map<std::string, double> m;
  for (const auto& [name, metric] : LayerMetrics(in)) m[name] = metric.first;
  EXPECT_DOUBLE_EQ(m["dist.shard_fetch_max_ms"], 6);
  EXPECT_DOUBLE_EQ(m["dist.shard_skew"], 1.5);  // slowest / mean (6 / 4)
  EXPECT_DOUBLE_EQ(m["dist.gather_ms"], 4);     // request - slowest fetch
  EXPECT_DOUBLE_EQ(m["core.engine_self_ms"], 4);
}

TEST(LayerMetricsTest, UnmeasuredLayersChecksOnlyTheExercisingWorkload) {
  const MetricList layers = {{"connector.sql_ms", {0.0, "ms"}},
                             {"frontend.format_ms", {0.0, "ms"}},
                             {"xml.serialize_ms", {2.5, "ms"}},
                             {"trace.overhead", {0.0, "ratio"}}};
  // bulk_report exercises the connector and the serializer, not formatting.
  EXPECT_EQ(UnmeasuredLayers("bulk_report", layers),
            (std::vector<std::string>{"connector.sql_ms", "trace.overhead"}));
  EXPECT_EQ(UnmeasuredLayers("portal_mix", layers),
            (std::vector<std::string>{"frontend.format_ms", "trace.overhead"}));
}

TEST(OperatorRowsTest, SkipsEstimates) {
  EXPECT_EQ(OperatorRows("Construct (a) {est_rows=50, batches=1, rows=40}\n"
                         "  Scan (a) {batches=2, rows=40}\n"),
            80u);
  EXPECT_EQ(OperatorRows(""), 0u);
}

}  // namespace
}  // namespace e2ebench
}  // namespace nimble
