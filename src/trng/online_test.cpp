#include "trng/online_test.hpp"

#include "common/contracts.hpp"
#include "stats/descriptive.hpp"
#include "stats/special.hpp"

namespace ptrng::trng {

ThermalNoiseMonitor::ThermalNoiseMonitor(const OnlineTestConfig& config,
                                         double f0)
    : config_(config), f0_(f0) {
  PTRNG_EXPECTS(config.n_cycles >= 1);
  PTRNG_EXPECTS(config.windows_per_test >= 8);
  PTRNG_EXPECTS(config.reference_sigma2 > 0.0);
  PTRNG_EXPECTS(config.false_alarm > 0.0 && config.false_alarm < 0.5);
  PTRNG_EXPECTS(f0 > 0.0);
  const double dof = static_cast<double>(config.windows_per_test - 1);
  chi2_lo_ = stats::chi_square_quantile(config.false_alarm / 2.0, dof);
  chi2_hi_ = stats::chi_square_quantile(1.0 - config.false_alarm / 2.0, dof);
  sn_buffer_.reserve(config.windows_per_test);
}

bool ThermalNoiseMonitor::push_count(std::int64_t q,
                                     OnlineTestDecision* decision) {
  PTRNG_EXPECTS(decision != nullptr);
  if (!has_prev_) {
    prev_q_ = q;
    has_prev_ = true;
    return false;
  }
  sn_buffer_.push_back(static_cast<double>(q - prev_q_) / f0_);
  prev_q_ = q;
  if (sn_buffer_.size() < config_.windows_per_test) return false;

  const double s2 = stats::variance(sn_buffer_);
  const double dof = static_cast<double>(config_.windows_per_test - 1);
  // Under H0 (calibrated device), dof * s2 / sigma2_ref ~ chi-square(dof).
  decision->sigma2_estimate = s2;
  decision->lower_bound = config_.reference_sigma2 * chi2_lo_ / dof;
  decision->upper_bound = config_.reference_sigma2 * chi2_hi_ / dof;
  decision->alarm =
      s2 < decision->lower_bound || s2 > decision->upper_bound;
  sn_buffer_.clear();
  ++decisions_;
  if (decision->alarm) ++alarms_;
  return true;
}

void ThermalNoiseMonitor::observe(std::span<const std::uint8_t> raw_bits) {
  OnlineTestDecision decision;
  for (const std::uint8_t b : raw_bits) {
    cumulative_ones_ += (b & 1u);
    if (++window_fill_ == config_.n_cycles) {
      window_fill_ = 0;
      (void)push_count(cumulative_ones_, &decision);
    }
  }
}

}  // namespace ptrng::trng
