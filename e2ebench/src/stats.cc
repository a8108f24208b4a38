#include "stats.h"

#include <algorithm>
#include <cmath>

namespace nimble {
namespace e2ebench {

namespace {

/// 1-based nearest rank of the q-th percentile among n samples.
size_t NearestRank(size_t n, double q) {
  const double exact = q / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

size_t MinSamplesFor(double q, size_t beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

std::vector<RoundSample> Blocks(const std::vector<RoundSample>& rounds, size_t cycle,
                                size_t min_reads) {
  cycle = std::max<size_t>(cycle, 1);
  auto append = [](RoundSample* to, const RoundSample& from) {
    to->latencies_ms.insert(to->latencies_ms.end(), from.latencies_ms.begin(),
                            from.latencies_ms.end());
    to->ops += from.ops;
    to->seconds += from.seconds;
  };
  std::vector<RoundSample> blocks;
  RoundSample open;
  for (size_t i = 0; i < rounds.size(); ++i) {
    append(&open, rounds[i]);
    if ((i + 1) % cycle == 0 && open.latencies_ms.size() >= min_reads) {
      blocks.push_back(std::move(open));
      open = RoundSample();
    }
  }
  if (open.seconds > 0 || !open.latencies_ms.empty()) {
    if (blocks.empty()) {
      blocks.push_back(std::move(open));
    } else {
      append(&blocks.back(), open);
    }
  }
  return blocks;
}

BlockSummary Summarize(const std::vector<RoundSample>& rounds, size_t cycle,
                       size_t min_reads) {
  std::vector<double> p50, p90, qps;
  for (const RoundSample& block : Blocks(rounds, cycle, min_reads)) {
    p50.push_back(Percentile(block.latencies_ms, 50));
    p90.push_back(Percentile(block.latencies_ms, 90));
    qps.push_back(Ratio(static_cast<double>(block.ops), block.seconds));
  }
  BlockSummary summary;
  summary.blocks = qps.size();
  summary.p50_ms = InterquartileMean(std::move(p50));
  summary.p90_ms = InterquartileMean(std::move(p90));
  summary.qps = InterquartileMean(std::move(qps));
  return summary;
}

int64_t CoveredNanos(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t covered = 0;
  int64_t reach = parent.start;
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;
    const int64_t from = std::max(child.start, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return covered;
}

int64_t SelfNanos(const Interval& parent, const std::vector<Interval>& children) {
  return (parent.end - parent.start) - CoveredNanos(parent, children);
}

double Ratio(double numerator, double base) {
  return base == 0.0 ? 0.0 : numerator / base;
}

}  // namespace e2ebench
}  // namespace nimble
