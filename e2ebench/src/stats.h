#ifndef NIMBLE_E2EBENCH_STATS_H_
#define NIMBLE_E2EBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles and the sample-count rule
// behind them, span self time, and ratios with an explicit base. Kept apart
// from the workloads so tests/stats_test.cc can pin every formula.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nimble {
namespace e2ebench {

/// Nearest-rank percentile: the smallest sample with at least `q` percent
/// of the samples at or below it. `q` is in (0, 100]; returns 0 for an
/// empty sample.
double Percentile(std::vector<double> values, double q);

/// Median as Percentile(values, 50).
double Median(std::vector<double> values);

/// Mean of the middle half: the values sorted, floor(n/4) dropped from
/// each end, the rest averaged (plain mean below four values). As robust
/// as the median to a slow quarter at either end, but it moves less when
/// the values cluster in two groups. 0 for no values.
double InterquartileMean(std::vector<double> values);

/// How many of `n` samples lie strictly beyond the nearest-rank `q`-th
/// percentile: n - ceil(q/100 * n).
size_t SamplesBeyond(size_t n, double q);

/// The smallest sample count that leaves at least `beyond` samples past
/// the `q`-th percentile (100 for p90 with 10 beyond).
size_t MinSamplesFor(double q, size_t beyond);

/// One timed round, as the end-to-end metrics see it.
struct RoundSample {
  std::vector<double> latencies_ms;  ///< one per read.
  size_t ops = 0;                    ///< operations completed, writes included.
  double seconds = 0;                ///< the round's wall time.
};

/// Merges consecutive rounds (in run order) into blocks of whole cycles of
/// `cycle` rounds, one round per CPU, each block growing by whole cycles
/// until it holds at least `min_reads` reads; rounds left over join the
/// last block. Every block thus runs equally on every CPU, and a host that
/// slows down for a few seconds moves only a minority of the blocks.
std::vector<RoundSample> Blocks(const std::vector<RoundSample>& rounds, size_t cycle,
                                size_t min_reads);

/// The end-to-end figures of a run: the InterquartileMean over Blocks() of
/// each block's read-latency percentiles and operations per second.
struct BlockSummary {
  double p50_ms = 0;
  double p90_ms = 0;
  double qps = 0;
  size_t blocks = 0;
};
BlockSummary Summarize(const std::vector<RoundSample>& rounds, size_t cycle,
                       size_t min_reads);

/// A closed-open time interval in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `children`, each clipped to `parent`. Children
/// may overlap each other (connector calls fanned out on a pool).
int64_t CoveredNanos(const Interval& parent, std::vector<Interval> children);

/// A span's self time: its duration minus the part its children cover.
int64_t SelfNanos(const Interval& parent, const std::vector<Interval>& children);

/// `numerator / base`, or 0 when the base is 0 (a layer that did no work).
double Ratio(double numerator, double base);

}  // namespace e2ebench
}  // namespace nimble

#endif  // NIMBLE_E2EBENCH_STATS_H_
