#include "measurement/counter.hpp"

#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "stats/descriptive.hpp"

namespace ptrng::measurement {

DifferentialCounter::DifferentialCounter(oscillator::RingOscillator& osc1,
                                         oscillator::RingOscillator& osc2)
    : osc1_(osc1),
      osc2_(osc2),
      bracket_{osc1.edge_time(), osc1.edge_time()},
      prev_cycle_(osc1.cycle_count()) {}

std::vector<std::int64_t> DifferentialCounter::count_windows(
    std::size_t n_cycles, std::size_t n_windows) {
  PTRNG_EXPECTS(n_cycles >= 1);
  PTRNG_EXPECTS(n_windows >= 1);
  std::vector<std::int64_t> counts;
  counts.reserve(n_windows);

  for (std::size_t w = 0; w < n_windows; ++w) {
    // Window end: advance osc2 by n_cycles periods (exact block advance).
    osc2_.advance_periods(n_cycles);
    const double window_end = osc2_.edge_time();
    // Bracket the instant just below the window end, so an osc1 edge
    // exactly at the end belongs to the next window.
    const double held_next = bracket_.next;
    bracket_ = osc1_.advance_to_block(
        std::nextafter(window_end, -std::numeric_limits<double>::infinity()),
        bracket_);
    // The window's count is how far bracket_.prev moved; a bracket that
    // already held the window end did not move.
    std::int64_t q = 0;
    if (bracket_.next != held_next) {
      const std::uint64_t prev_cycle = osc1_.cycle_count() - 1;
      q = static_cast<std::int64_t>(prev_cycle - prev_cycle_);
      prev_cycle_ = prev_cycle;
    }
    counts.push_back(q);
  }
  return counts;
}

std::vector<double> DifferentialCounter::sn_from_counts(
    const std::vector<std::int64_t>& counts, double f0) {
  PTRNG_EXPECTS(counts.size() >= 2);
  PTRNG_EXPECTS(f0 > 0.0);
  std::vector<double> sn;
  sn.reserve(counts.size() - 1);
  for (std::size_t i = 0; i + 1 < counts.size(); ++i)
    sn.push_back(static_cast<double>(counts[i + 1] - counts[i]) / f0);
  return sn;
}

double DifferentialCounter::sigma2_n(std::size_t n_cycles,
                                     std::size_t n_windows) {
  PTRNG_EXPECTS(n_windows >= 2);
  const auto counts = count_windows(n_cycles, n_windows);
  const double f0 = osc1_.config().f0;
  stats::RunningStats acc;
  for (std::size_t i = 0; i + 1 < counts.size(); ++i)
    acc.add(static_cast<double>(counts[i + 1] - counts[i]) / f0);
  return acc.variance();
}

}  // namespace ptrng::measurement
