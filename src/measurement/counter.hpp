// Bit-exact simulation of the paper's differential jitter measurement
// circuit (Fig. 6): a counter counts rising edges of Osc1 during windows of
// N cycles of Osc2, yielding Q^N_i; the observable is (Eq. 12)
//
//   s_N(t_i) = (Q^N_{i+1} - Q^N_i) / f0.
//
// Unlike the oracle in sn_process.hpp, this estimator only sees integer
// counts, so it carries a +-1-count quantization error — its magnitude and
// the regime where it matters are characterized by
// bench_counter_vs_direct (docs/ARCHITECTURE.md §3).
//
// Each window end is one RingOscillator::advance_to_block of osc1 (the
// same exact-in-law jump-then-step advance the TRNGs sample with), and
// the count is how many osc1 cycles the bracket's lower edge moved. An
// edge strictly before the window end is counted in that window; one
// exactly at the end belongs to the next. For fresh rings, once
// count_windows has run, over all its calls:
//   sum(counts) + 1 == osc1.cycle_count()
// (the one uncounted edge is the bracket's upper edge, past the last
// window end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oscillator/ring_oscillator.hpp"

namespace ptrng::measurement {

/// Event-driven two-clock counter.
class DifferentialCounter {
 public:
  /// Non-owning references; the oscillators advance as windows are taken.
  /// The counter owns osc1's advance from here on: nothing else may
  /// advance osc1 between count_windows calls (the next call's
  /// advance_to_block throws ContractViolation if it did).
  DifferentialCounter(oscillator::RingOscillator& osc1,
                      oscillator::RingOscillator& osc2);

  /// Counts Osc1 rising edges over `n_windows` consecutive windows of
  /// `n_cycles` Osc2 periods each.
  [[nodiscard]] std::vector<std::int64_t> count_windows(std::size_t n_cycles,
                                                        std::size_t n_windows);

  /// s_N realizations from consecutive counts (Eq. 12), length = counts-1.
  [[nodiscard]] static std::vector<double> sn_from_counts(
      const std::vector<std::int64_t>& counts, double f0);

  /// Convenience: directly estimate sigma^2_N from `n_windows` windows —
  /// one count_windows pass, count differences reduced in a single
  /// streaming accumulation (no s_N staging vector).
  [[nodiscard]] double sigma2_n(std::size_t n_cycles, std::size_t n_windows);

 private:
  oscillator::RingOscillator& osc1_;
  oscillator::RingOscillator& osc2_;
  /// osc1's edges around the instant just below the last window end.
  oscillator::EdgeBracket bracket_;
  std::uint64_t prev_cycle_;  ///< osc1 cycle index of bracket_.prev
};

}  // namespace ptrng::measurement
