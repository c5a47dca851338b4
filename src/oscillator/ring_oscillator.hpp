// Phase-domain ring-oscillator simulator.
//
// The oscillator is simulated in the period domain: the i-th period is
//
//   T_i = 1/f_actual + J_th,i + J_fl,i
//
// where J_th is iid Gaussian (thermal) and J_fl is a 1/f-correlated
// sequence (flicker). Calibration to the paper's phase PSD
// S_phi = b_th/f^2 + b_fl/f^3 (two-sided) uses the cumulative-sum identity
// S_phi(f) ~ S_J(f) * f0^4/f^2 for f << f0 (docs/ARCHITECTURE.md §3):
//
//   thermal:  Var(J_th) = b_th / f0^3
//   flicker:  S_Jfl(f)  = (b_fl / f0^4) / f   (two-sided)
//
// Ground-truth jitter components are exposed so measurement code can be
// validated against an oracle that hardware never provides.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "phase_noise/phase_psd.hpp"

namespace ptrng::oscillator {

/// One simulated oscillator period with its noise decomposition.
struct PeriodSample {
  double period = 0.0;   ///< T_i [s]
  double thermal = 0.0;  ///< J_th,i [s]
  double flicker = 0.0;  ///< J_fl,i [s]
  /// Total period jitter J_i = T_i - nominal (excludes deterministic
  /// modulation).
  [[nodiscard]] double jitter() const noexcept { return thermal + flicker; }
};

/// A pair of consecutive rising-edge times bracketing a sampling instant:
/// prev <= t < next. The value type of the bulk-edge sampling API below.
struct EdgeBracket {
  double prev = 0.0;  ///< last edge at or before the instant [s]
  double next = 0.0;  ///< first edge after the instant [s]

  /// Fractional phase of the instant inside the bracket, in [0, 1).
  [[nodiscard]] double fractional_phase(double t) const noexcept {
    return (t - prev) / (next - prev);
  }
};

// advance_to_block's landing margin (RingOscillator, GateChainOscillator):
// the jump stops kMarginPeriods + kMarginSigmas * sigma_N short of the
// target, sigma_N the stationary stddev of the jump's elapsed time
// (thermal plus flicker, Eq. 11). The jump's error is exactly Gaussian,
// so at 10 sigma an overshoot has probability ~8e-24 per jump at any
// noise level — under 1e-14 over a full campaign's ~1e8 jumps. The
// fixed eighth of a period keeps a margin far above rounding when
// sigma_N is tiny. Each extra period of margin costs one more
// next_period() step per call; at paper levels the margin is ~0.3
// period. RingOscillator's jump also realizes the period after the
// landing edge, so a call steps ~0.3 times on average;
// GateChainOscillator's steps ~1.3 times.
inline constexpr double kMarginPeriods = 0.125;
inline constexpr double kMarginSigmas = 10.0;

/// Direct-mapped memo of a value per jump length n: advance_to_block's
/// margin in periods, the thermal scale sigma_th * sqrt(k). Slot
/// n % kSlots holds the value last computed for (n, key), where `key`
/// carries the one input besides n that may change over the owner's
/// life (the modulation depth; 0 where there is none). So nothing is
/// ever invalidated, and a collision only costs a recompute. A hit
/// returns the bits the same computation gave the first time.
class JumpMemo {
 public:
  template <typename Compute>
  [[nodiscard]] double get(std::uint64_t n, double key, Compute&& compute) {
    Slot& slot = slots_[n % kSlots];
    if (slot.n != n || slot.key != key) slot = {n, key, compute()};
    return slot.value;
  }

 private:
  static constexpr std::size_t kSlots = 16;
  struct Slot {
    std::uint64_t n = ~std::uint64_t{0};  ///< no jump length matches
    double key = 0.0;
    double value = 0.0;
  };
  std::array<Slot, kSlots> slots_{};
};

/// Length of an advance_to_block jump toward a target `gap` periods past
/// the latest edge: floor(gap - kMarginPeriods -
/// kMarginSigmas * stddev(n) / period) with n = ceil(gap), where
/// `stddev(n)` is the stddev [s] of the elapsed time of n periods (an
/// upper bound for the jump's own) and `period` the nominal period [s].
/// Returns 0 (step only) when the gap is within 1 + kMarginPeriods
/// periods or when either the gap or the stddev is not finite: the
/// comparisons are NaN-safe, so a degenerate oscillator steps. With a
/// `memo`, the margin kMarginSigmas * stddev(n) / period is looked up
/// under (n, key) and computed only on a miss; `key` must name every
/// input of `stddev` that can change between calls.
template <typename Stddev>
[[nodiscard]] std::uint64_t jump_periods(double gap, double period,
                                         Stddev&& stddev,
                                         JumpMemo* memo = nullptr,
                                         double key = 0.0) {
  if (!(gap > 1.0 + kMarginPeriods)) return 0;
  const auto n = static_cast<std::uint64_t>(std::ceil(gap));
  const auto margin = [&] { return kMarginSigmas * stddev(n) / period; };
  const double skip =
      gap - kMarginPeriods - (memo ? memo->get(n, key, margin) : margin());
  return skip >= 1.0 ? static_cast<std::uint64_t>(skip) : 0;
}

/// Deterministic sinusoidal fractional-frequency modulation
/// df/f = depth * sin(2 pi f_beat t): the beat an injection attack leaves
/// on a partially locked ring (attacks::InjectionAttack::modulation_for).
/// Each period is scaled by 1 - m(t) at its start edge t. depth = 0 is
/// the free-running ring.
struct SinusoidalModulation {
  double depth = 0.0;   ///< peak fractional frequency deviation, [0, 0.25)
  double f_beat = 0.0;  ///< beat frequency [Hz]

  /// m(t) = df/f at absolute time t [s].
  [[nodiscard]] double operator()(double t) const noexcept {
    return depth * std::sin(constants::two_pi * f_beat * t);
  }
};

/// Configuration of a simulated ring oscillator.
/// (Suppression covers the struct definition only — implicit-ctor NSDMI
/// use of the deprecated alias; callsite writes still warn.)
PTRNG_SUPPRESS_DEPRECATED_BEGIN
struct RingOscillatorConfig {
  double f0 = 103e6;      ///< nominal frequency [Hz] (paper: 103 MHz)
  double b_th = 138.02;   ///< two-sided thermal phase coefficient [Hz]
  double b_fl = 9.578e5;  ///< two-sided flicker phase coefficient [Hz^2]
  /// Lower edge of the flicker band as a fraction of f0 (the 1/f shaping
  /// holds above f0 * flicker_floor_ratio; below it the PSD flattens,
  /// keeping the process stationary).
  double flicker_floor_ratio = 1e-7;
  unsigned flicker_stages_per_decade = 3;
  /// Static frequency offset (mismatch between "identical" rings),
  /// fractional: f_actual = f0 * (1 + mismatch).
  double mismatch = 0.0;
  std::uint64_t seed = 0x05c111a701ULL;
  /// Sampler policy for the thermal draws and every flicker stage
  /// (docs/ARCHITECTURE.md §5 "Sampler policy"); Polar reproduces the
  /// pre-PR-5 realized period streams bit-for-bit.
  noise::SamplerPolicy sampler{};
  /// Pre-PR-7 alias of sampler.gauss_method; wins over `sampler` when
  /// explicitly set (noise::resolved_sampler).
  [[deprecated("set sampler.gauss_method (noise/sampler_policy.hpp)")]]
  std::optional<GaussianSampler::Method> gauss_method{};

  /// The analytic phase PSD this configuration realizes.
  [[nodiscard]] phase_noise::PhasePsd phase_psd() const {
    return {b_th, b_fl, f0};
  }
};
PTRNG_SUPPRESS_DEPRECATED_END

/// Streaming phase-domain ring oscillator.
class RingOscillator {
 public:
  explicit RingOscillator(const RingOscillatorConfig& config);

  /// Generates the next period (with ground-truth decomposition).
  PeriodSample next_period();

  /// Batched fast path: fills `out` with the next out.size() periods,
  /// bit-identical to out.size() next_period() calls (the thermal draws
  /// come from the same stream in the same order and the flicker block
  /// rides FilterBankFlicker::fill, which is itself bit-identical to
  /// stepping). Falls back to stepping when modulated (each period's
  /// scale depends on its start edge).
  void next_periods(std::span<PeriodSample> out);

  /// Batched edge realization for boundary-resolution consumers (the
  /// differential counter): appends out.size() periods and writes the
  /// absolute rising-edge time after each one into out — bit-identical
  /// to out.size() next_period() calls reading edge_time() after each
  /// (same per-edge compensated accumulation, same stream consumption
  /// as next_periods). Falls back to stepping when modulated.
  void next_edges(std::span<double> out);

  /// Fast path: advances `k` periods in O(flicker stages) time — the
  /// thermal sum is one Gaussian draw, the flicker sum comes from the
  /// filter bank's exact block advance. Statistically indistinguishable
  /// from k next_period() calls for every downstream observable that only
  /// depends on edge times at the block boundaries. Steps period by
  /// period when k < 8. Under modulation the same free-running block
  /// runs on the ring's own clock: it lands where the ring's closed-form
  /// period count has grown by its elapsed time in nominal periods
  /// (docs/ARCHITECTURE.md §5, "Modulated rings jump on their own clock").
  void advance_periods(std::uint64_t k);

  /// Absolute time of the most recently produced rising edge [s].
  /// Accumulated with compensated summation.
  [[nodiscard]] double edge_time() const noexcept { return edge_time_.value(); }

  /// Bulk-edge API for batched sampling: advances this oscillator until
  /// its edge bracket contains `t_target` and returns that bracket.
  /// `bracket` is the caller's current bracket; bracket.next must be the
  /// most recent realized edge, i.e. edge_time() (checked). It makes one
  /// jump whose landing edge stops 0.125 period + 10 sigma_N short of the
  /// target, sigma_N the stationary stddev of the gap's accumulated
  /// jitter (thermal plus FilterBankFlicker::sum_variance, times 1 + depth
  /// under modulation), so an overshoot has negligible probability at any
  /// noise level. Under modulation the gap and the jump are counted on
  /// the ring's own clock, as in advance_periods. The same jump realizes
  /// the period after the landing edge (advance_sum over one more period,
  /// whose flicker is FilterBankFlicker::last_sample()), so the bracket
  /// is usually complete; it steps only while its next edge is still at
  /// or before the target (~0.3 steps per call at campaign noise levels).
  /// Already-bracketed targets (t_target < bracket.next) return the input
  /// unchanged, so per-bit resampling costs nothing extra.
  [[nodiscard]] EdgeBracket advance_to_block(double t_target,
                                             EdgeBracket bracket);

  /// Number of periods generated so far.
  [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }

  /// Installs a deterministic fractional-frequency modulation (used by
  /// the attack models); a default-constructed one (depth 0) clears it.
  /// The block paths assume a beat far below f0.
  void set_modulation(SinusoidalModulation modulation);

  /// Thermal per-period jitter stddev realized by this instance [s].
  [[nodiscard]] double sigma_thermal() const noexcept { return sigma_th_; }

  /// Mean period including mismatch [s].
  [[nodiscard]] double nominal_period() const noexcept { return t_nom_; }

  [[nodiscard]] const RingOscillatorConfig& config() const noexcept {
    return config_;
  }

 private:
  RingOscillatorConfig config_;
  double t_nom_;
  double sigma_th_;
  GaussianSampler gauss_;
  std::optional<noise::FilterBankFlicker> flicker_;  ///< absent if b_fl == 0
  SinusoidalModulation modulation_;
  /// Under modulation, the ring's deterministic period count N at
  /// edge_time() (ring_oscillator.cpp), kept by every advance.
  double count_ = 0.0;
  KahanSum edge_time_;
  std::uint64_t cycles_ = 0;
  std::vector<double> flicker_scratch_;  ///< next_periods block staging
  std::vector<double> thermal_scratch_;  ///< batched thermal draw staging
  JumpMemo margin_memo_;   ///< advance_to_block's margin per (n, depth)
  JumpMemo thermal_memo_;  ///< sigma_th * sqrt(k) per jump length k

  /// sigma_th * sqrt(k): the stddev of k periods' summed thermal jitter.
  [[nodiscard]] double thermal_scale(std::uint64_t k) {
    return thermal_memo_.get(k, 0.0, [this, k] {
      return sigma_th_ * std::sqrt(static_cast<double>(k));
    });
  }

  [[nodiscard]] bool modulated() const noexcept {
    return modulation_.depth != 0.0;
  }
};

}  // namespace ptrng::oscillator
