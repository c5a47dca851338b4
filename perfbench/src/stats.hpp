// Order statistics of the benchmark: nearest-rank percentiles and the
// tail rule (report the highest percentile that still has at least ten
// samples beyond it, with the sample count).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile p in (0, 100] of `samples` (sorted or not):
/// the value at 1-based rank ceil(n * p / 100). Requires samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Samples strictly after the nearest-rank position of percentile p.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The tail a timing is reported with.
struct Tail {
  double percentile = 0.0;  ///< 0 when no ladder step has 10 samples beyond
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples after the reported rank
  std::size_t samples = 0;
};

/// Minimum samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Highest percentile on the ladder 50, 90, 99, 99.9, 99.99, 99.999 with
/// at least kTailSamplesBeyond samples beyond it.
[[nodiscard]] Tail tail_percentile(const std::vector<double>& samples);

}  // namespace perfbench
