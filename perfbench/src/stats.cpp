#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(static_cast<double>(n) * p / 100.0));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  const std::size_t idx = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

Tail tail_percentile(const std::vector<double>& samples) {
  static constexpr double kLadder[] = {50.0,  90.0,   99.0,
                                       99.9,  99.99,  99.999};
  Tail tail;
  tail.samples = samples.size();
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(samples.size(), p);
    if (beyond < kTailSamplesBeyond) break;
    tail.percentile = p;
    tail.beyond = beyond;
  }
  if (tail.percentile > 0.0) tail.value = percentile(samples, tail.percentile);
  return tail;
}

}  // namespace perfbench
