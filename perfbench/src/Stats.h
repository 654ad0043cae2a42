//===- Stats.h - Latency summaries for the benchmark ------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of \p Values (mean of the two middle values for even counts);
/// 0 for an empty set.
inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

/// A tail latency: the value at a percentile of the ladder, and how many
/// samples lie beyond it.
struct Tail {
  double Percentile = 0;
  double Value = 0;
  size_t Beyond = 0;
  size_t Samples = 0;
};

/// The highest percentile of the ladder p50, p90, p99 that still has at
/// least \p MinBeyond samples strictly beyond its nearest-rank value. A
/// fixed ladder keeps the reported percentile the same across runs with
/// similar sample counts. The ladder stops at p99: on a shared host the
/// slowest 0.1% of millisecond jobs are OS hiccups, not the program, and
/// a p99.9 resting on a dozen of them moved by 17% between seeds. It has
/// no p95: fig-sweep's p95 sat on the edge of its large-class points (4%
/// of the list) and moved by 9% between seeds, its p90 by 4%. With too
/// few samples for even p50 the result is p50 and Beyond says how thin
/// it is.
inline Tail tailPercentile(std::vector<double> Values, size_t MinBeyond = 10) {
  // Percentiles in millionths, so ranks are exact integer arithmetic.
  static const uint64_t Ladder[] = {500000, 900000, 990000};
  Tail Result;
  Result.Samples = Values.size();
  if (Values.empty())
    return Result;
  std::sort(Values.begin(), Values.end());
  uint64_t N = Values.size();
  auto rankOf = [N](uint64_t P) { return (P * N + 999999) / 1000000; };
  uint64_t Chosen = Ladder[0];
  for (uint64_t P : Ladder)
    if (N - rankOf(P) >= MinBeyond)
      Chosen = P;
  uint64_t Rank = std::max<uint64_t>(1, rankOf(Chosen));
  Result.Percentile = static_cast<double>(Chosen) / 1e4;
  Result.Value = Values[Rank - 1];
  Result.Beyond = N - Rank;
  return Result;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
