// Order statistics for the benchmark's latency samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or nullopt
/// when fewer than kMinSamplesBeyond samples lie strictly above its rank
/// (so p99 needs at least 1,000 samples and p50 at least 20).
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Median over consecutive, equal slices of `samples` (kept in run
/// order) of each slice's Percentile(p). A stall of the host that slows
/// one slice moves only that slice's value, which the median ignores.
/// Uses the most slices, up to `max_slices`, for which every slice's
/// percentile is supported; nullopt when even the whole run's is not.
inline std::optional<double> SlicedPercentile(const std::vector<double>& samples,
                                              double p, size_t max_slices) {
  for (size_t slices = max_slices; slices >= 1; --slices) {
    std::vector<double> values;
    for (size_t i = 0; i < slices; ++i) {
      std::optional<double> v =
          Percentile({samples.begin() + samples.size() * i / slices,
                      samples.begin() + samples.size() * (i + 1) / slices},
                     p);
      if (!v) break;
      values.push_back(*v);
    }
    if (values.size() == slices) return Median(values);
  }
  return std::nullopt;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
