// The dedicated online test the paper proposes in its conclusion: because
// sigma^2_N at small N (inside the independence region) is dominated by
// thermal noise, a cheap embedded counter can continuously verify that the
// thermal-noise level matches the calibrated reference. A frequency-
// injection or EM attack collapses or locks the relative jitter, driving
// the statistic outside its acceptance band within a few windows.
//
// The monitor is a TapStage: attached to a Pipeline (attach_tap) it
// watches the RAW bit stream like every other observer, turning each
// `n_cycles`-bit window into one count of a cumulative ones counter
// (the Fig. 6 counter's monotone count sequence). Callers that already
// have counter values feed them through push_count instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trng/bit_stream.hpp"

namespace ptrng::trng {

/// Configuration of the embedded thermal-noise monitor.
struct OnlineTestConfig {
  std::size_t n_cycles = 200;      ///< window length N (< independence N*)
  std::size_t windows_per_test = 64;  ///< s_N samples per decision
  double reference_sigma2 = 0.0;   ///< calibrated Var(s_N) [s^2]
  /// Two-sided false-alarm probability per decision (sets the chi-square
  /// acceptance band).
  double false_alarm = 1e-6;
};

/// Decision statistics of one test window.
struct OnlineTestDecision {
  double sigma2_estimate = 0.0;
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  bool alarm = false;
};

/// Streaming monitor: feed Q^N counts (from the Fig. 6 counter, or from
/// raw bits through observe()); every `windows_per_test` counts it emits
/// a decision.
class ThermalNoiseMonitor final : public TapStage {
 public:
  /// f0: nominal oscillator frequency (count-to-time scaling).
  ThermalNoiseMonitor(const OnlineTestConfig& config, double f0);

  /// Feeds one window count. Returns a decision when a test completes.
  [[nodiscard]] bool push_count(std::int64_t q, OnlineTestDecision* decision);

  /// Raw-stream tap: counts ones cumulatively and pushes the running
  /// count after every `n_cycles` bits. Window state carries across
  /// blocks, so block boundaries never change the decisions.
  void observe(std::span<const std::uint8_t> raw_bits) override;
  [[nodiscard]] const char* tap_name() const noexcept override {
    return "thermal_noise_monitor";
  }

  /// Number of completed decisions so far.
  [[nodiscard]] std::size_t decisions() const noexcept { return decisions_; }
  /// Number of those decisions that alarmed.
  [[nodiscard]] std::size_t alarms() const noexcept { return alarms_; }

  [[nodiscard]] const OnlineTestConfig& config() const noexcept {
    return config_;
  }

 private:
  OnlineTestConfig config_;
  double f0_;
  double chi2_lo_;  ///< acceptance band quantiles (precomputed)
  double chi2_hi_;
  std::vector<double> sn_buffer_;
  bool has_prev_ = false;
  std::int64_t prev_q_ = 0;
  std::size_t decisions_ = 0;
  std::size_t alarms_ = 0;
  std::size_t window_fill_ = 0;         ///< raw bits in the open window
  std::int64_t cumulative_ones_ = 0;    ///< emulated counter value
};

}  // namespace ptrng::trng
