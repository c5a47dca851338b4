#include "oscillator/gate_chain.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace ptrng::oscillator {

GateChainOscillator::GateChainOscillator(const GateChainConfig& config)
    : config_(config),
      gauss_(config.seed, noise::resolved_sampler(config).gauss_method) {
  PTRNG_EXPECTS(config.n_stages >= 3);
  PTRNG_EXPECTS(config.n_stages % 2 == 1);
  PTRNG_EXPECTS(config.stage_delay > 0.0);
  PTRNG_EXPECTS(config.sigma_stage >= 0.0);
  PTRNG_EXPECTS(config.flicker_amplitude >= 0.0);

  t_nom_ = 2.0 * static_cast<double>(config.n_stages) * config.stage_delay;
  f0_ = 1.0 / t_nom_;

  if (config.flicker_amplitude > 0.0) {
    // Stage transitions occur at rate 2*N*f0 = 1/stage_delay.
    const double fs = 1.0 / config.stage_delay;
    stage_flicker_.reserve(config.n_stages);
    for (std::size_t k = 0; k < config.n_stages; ++k) {
      stage_flicker_.emplace_back(noise::flicker_band_config(
          config.flicker_amplitude, fs, config.flicker_floor_hz,
          config.seed + 0x1111ULL * (k + 1), 3,
          noise::resolved_sampler(config)));
    }
  }
}

PeriodSample GateChainOscillator::next_period() {
  PeriodSample s;
  const std::size_t transitions = 2 * config_.n_stages;
  double total = 0.0;
  double thermal = 0.0;
  double flicker = 0.0;
  for (std::size_t t = 0; t < transitions; ++t) {
    const double th = config_.sigma_stage * gauss_();
    double fl = 0.0;
    if (!stage_flicker_.empty())
      fl = stage_flicker_[t % config_.n_stages].next();
    thermal += th;
    flicker += fl;
    total += config_.stage_delay + th + fl;
  }
  s.period = total;
  s.thermal = thermal;
  s.flicker = flicker;
  ++cycles_;
  return s;
}

void GateChainOscillator::next_periods(std::span<PeriodSample> out) {
  const std::size_t n_stages = config_.n_stages;
  const std::size_t transitions = 2 * n_stages;
  const bool has_flicker = !stage_flicker_.empty();
  constexpr std::size_t kBlockPeriods = 1024;  // bounds the staging scratch

  for (std::size_t done = 0; done < out.size(); done += kBlockPeriods) {
    const std::size_t n = std::min(kBlockPeriods, out.size() - done);

    // Stage all noise draws for the block up front: thermal from the
    // shared stream in transition order, flicker as one fill() block per
    // stage (stage s is traversed twice per period, so its bank yields
    // 2*n samples in the same within-stage order as stepping).
    scratch_.resize(n * transitions + (has_flicker ? n * transitions : 0));
    double* const thermal = scratch_.data();
    double* const flicker = scratch_.data() + n * transitions;
    for (std::size_t j = 0; j < n * transitions; ++j)
      thermal[j] = config_.sigma_stage * gauss_();
    for (std::size_t s = 0; has_flicker && s < n_stages; ++s)
      stage_flicker_[s].fill({flicker + s * 2 * n, 2 * n});

    // Assemble each period with the exact accumulation order of
    // next_period(), so the batch is bit-identical to stepping.
    for (std::size_t i = 0; i < n; ++i) {
      double total = 0.0;
      double th_sum = 0.0;
      double fl_sum = 0.0;
      for (std::size_t t = 0; t < transitions; ++t) {
        const double th = thermal[i * transitions + t];
        const double fl =
            has_flicker
                ? flicker[(t % n_stages) * 2 * n + 2 * i + (t >= n_stages)]
                : 0.0;
        th_sum += th;
        fl_sum += fl;
        total += config_.stage_delay + th + fl;
      }
      out[done + i].period = total;
      out[done + i].thermal = th_sum;
      out[done + i].flicker = fl_sum;
    }
  }
  cycles_ += out.size();
}

double GateChainOscillator::advance_sum(std::uint64_t m) {
  PTRNG_EXPECTS(m >= 1);
  const double transitions =
      2.0 * static_cast<double>(config_.n_stages) * static_cast<double>(m);
  double total = transitions * config_.stage_delay +
                 std::sqrt(transitions) * config_.sigma_stage * gauss_();
  for (auto& bank : stage_flicker_) total += bank.advance_sum(2 * m);
  cycles_ += m;
  return total;
}

double GateChainOscillator::sum_stddev(std::uint64_t m) {
  PTRNG_EXPECTS(m >= 1);
  double var = static_cast<double>(m) * period_thermal_variance();
  for (auto& bank : stage_flicker_) var += bank.sum_variance(2 * m);
  return std::sqrt(var);
}

EdgeBracket GateChainOscillator::advance_to_block(double t_target,
                                                  EdgeBracket bracket) {
  const std::uint64_t skip =
      jump_periods((t_target - bracket.next) / t_nom_, t_nom_,
                   [this](std::uint64_t n) { return sum_stddev(n); },
                   &margin_memo_);
  if (skip > 0) bracket.next += advance_sum(skip);
  while (bracket.next <= t_target) {
    bracket.prev = bracket.next;
    bracket.next += next_period().period;
  }
  return bracket;
}

double GateChainOscillator::period_thermal_variance() const {
  return 2.0 * static_cast<double>(config_.n_stages) *
         config_.sigma_stage * config_.sigma_stage;
}

RingOscillatorConfig GateChainOscillator::equivalent_phase_config() const {
  RingOscillatorConfig cfg;
  cfg.f0 = f0_;
  cfg.b_th = period_thermal_variance() * f0_ * f0_ * f0_;
  // Flicker equivalence: per-period flicker is the sum over 2N stage
  // samples; at frequencies well below the stage rate its PSD is
  // (2N)^2/(2N) = 2N times one stage's per-stage-rate PSD expressed on the
  // period grid... kept 0 here; cross-validation uses measured fits.
  cfg.b_fl = 0.0;
  cfg.seed = config_.seed;
  cfg.sampler = noise::resolved_sampler(config_);
  return cfg;
}

}  // namespace ptrng::oscillator
