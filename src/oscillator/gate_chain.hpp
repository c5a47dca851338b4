// Structural (gate-level) ring-oscillator model: N inverter stages, each
// contributing an independently noisy propagation delay per transition.
// One oscillation period = 2N stage delays (a rising edge must traverse
// the ring twice). This is the "one level down" view of the phase-domain
// simulator: it validates the aggregation rules (per-stage thermal
// variances add; per-stage flicker adds in PSD) and feeds the ISF ablation
// bench.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/ring_oscillator.hpp"

namespace ptrng::oscillator {

/// Per-stage delay model configuration.
/// (Suppression covers the struct definition only — implicit-ctor NSDMI
/// use of the deprecated alias; callsite writes still warn.)
PTRNG_SUPPRESS_DEPRECATED_BEGIN
struct GateChainConfig {
  std::size_t n_stages = 5;     ///< inverters in the ring (odd, >= 3)
  double stage_delay = 970e-12 / 10.0;  ///< nominal per-stage delay [s]
  double sigma_stage = 5e-12;   ///< thermal stddev per stage transition [s]
  /// Two-sided flicker amplitude of the per-stage delay sequence
  /// (PSD = amplitude/f against the stage-transition rate); 0 disables.
  double flicker_amplitude = 0.0;
  double flicker_floor_hz = 100.0;
  std::uint64_t seed = 0x9a7ec4a1ULL;
  /// Sampler policy for the shared thermal stream and every stage's
  /// flicker bank (docs/ARCHITECTURE.md §5 "Sampler policy").
  noise::SamplerPolicy sampler{};
  /// Pre-PR-7 alias of sampler.gauss_method; wins over `sampler` when
  /// explicitly set (noise::resolved_sampler).
  [[deprecated("set sampler.gauss_method (noise/sampler_policy.hpp)")]]
  std::optional<GaussianSampler::Method> gauss_method{};
};

/// Gate-level ring oscillator producing periods as sums of noisy stage
/// delays.
class GateChainOscillator {
 public:
  explicit GateChainOscillator(const GateChainConfig& config);

  /// Next full period: sum of 2*n_stages noisy stage delays.
  PeriodSample next_period();

  /// Batched fast path: fills `out` with the next out.size() periods,
  /// bit-identical to repeated next_period() calls. Thermal draws come
  /// from the shared stream in transition order; each stage's flicker
  /// samples (two per period — the rising and falling traversal) come
  /// from that stage's own bank in one FilterBankFlicker::fill block.
  void next_periods(std::span<PeriodSample> out);

  /// Fast path: the summed duration of the next m >= 1 periods in
  /// O(stages x flicker stages) time, independent of m. The thermal sum
  /// of the 2*N*m stage delays is one Gaussian draw,
  /// N(m*2N*t_stage, m*2N*sigma_stage^2); each stage's flicker adds its
  /// bank's exact FilterBankFlicker::advance_sum(2m), since every stage
  /// is crossed twice per period. Statistically indistinguishable from
  /// summing m next_period() calls.
  [[nodiscard]] double advance_sum(std::uint64_t m);

  /// Stationary stddev of advance_sum(m) (Eq. 11's sigma_N at N = m):
  /// the thermal variance m*2N*sigma_stage^2 plus every stage bank's
  /// FilterBankFlicker::sum_variance(2m). Draws nothing.
  [[nodiscard]] double sum_stddev(std::uint64_t m);

  /// Realizes edges until `bracket` contains `t_target` and returns it:
  /// prev <= t_target < next. `bracket.next` must be the latest realized
  /// edge (the caller owns the edge times; the oscillator only produces
  /// durations). Lands with one advance_sum jump that stops
  /// kMarginPeriods + kMarginSigmas * sum_stddev short of the target
  /// (oscillator::jump_periods, the rule RingOscillator::advance_to_block
  /// shares), then steps with next_period(). A non-finite sigma or edge
  /// never jumps. Already-bracketed targets return the input unchanged.
  [[nodiscard]] EdgeBracket advance_to_block(double t_target,
                                             EdgeBracket bracket);

  /// Number of periods realized so far (stepped, batched or jumped).
  [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }

  /// Nominal frequency 1/(2*N*t_stage).
  [[nodiscard]] double f0() const noexcept { return f0_; }

  /// Theoretical per-period thermal jitter variance: 2N * sigma_stage^2.
  [[nodiscard]] double period_thermal_variance() const;

  /// Equivalent phase-domain configuration (for cross-validation against
  /// RingOscillator): b_th = Var(J_th) * f0^3.
  [[nodiscard]] RingOscillatorConfig equivalent_phase_config() const;

  [[nodiscard]] const GateChainConfig& config() const noexcept {
    return config_;
  }

 private:
  GateChainConfig config_;
  double t_nom_;  ///< nominal period 2*N*t_stage [s]
  double f0_;
  std::uint64_t cycles_ = 0;
  GaussianSampler gauss_;
  /// One flicker process per stage (stage delays are physically driven by
  /// distinct devices).
  std::vector<noise::FilterBankFlicker> stage_flicker_;
  std::vector<double> scratch_;  ///< next_periods block staging
  /// advance_to_block's margin per n: sum_stddev runs N banks' sums.
  JumpMemo margin_memo_;
};

}  // namespace ptrng::oscillator
