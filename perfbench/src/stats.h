// Order statistics for the serving benchmark.
//
// Every latency the benchmark reports is a nearest-rank percentile together
// with the number of samples it was selected from and how many samples lie
// beyond it, so a reader can tell whether a percentile is supported by the
// data (the benchmark reports p50 and p90 only; p99 needs ten samples past
// it and is too noisy on a shared box to bound — see README.md). A run's
// repeated rounds are summarised by their better quartile.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;   // the selected sample
  size_t samples = 0;   // samples it was selected from
};

/// Nearest-rank percentile: the smallest sample such that at least
/// q * n samples are <= it (rank ceil(q * n), clamped to [1, n]). Sorts
/// `values` in place. An empty input yields samples == 0 and value 0.
inline Percentile SelectPercentile(std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double exact = q * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  return p;
}

/// The better quartile of repeated measurements: the nearest-rank 25th
/// percentile when lower is better, the 75th when higher is better (with
/// ten values, the third best either way).
inline double BetterQuartile(std::vector<double> values, bool higher_is_better) {
  return SelectPercentile(values, higher_is_better ? 0.75 : 0.25).value;
}

/// Median as the mean of the two middle samples for even counts (used for
/// the per-run medians of repeated sub-measurements such as set-up time).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
