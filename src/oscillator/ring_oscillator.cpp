#include "oscillator/ring_oscillator.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ptrng::oscillator {

RingOscillator::RingOscillator(const RingOscillatorConfig& config)
    : config_(config),
      gauss_(config.seed, noise::resolved_sampler(config).gauss_method) {
  PTRNG_EXPECTS(config.f0 > 0.0);
  PTRNG_EXPECTS(config.b_th >= 0.0);
  PTRNG_EXPECTS(config.b_fl >= 0.0);
  PTRNG_EXPECTS(std::abs(config.mismatch) < 0.5);
  PTRNG_EXPECTS(config.flicker_floor_ratio > 0.0 &&
                config.flicker_floor_ratio < 0.25);

  const double f_actual = config.f0 * (1.0 + config.mismatch);
  t_nom_ = 1.0 / f_actual;
  // Var(J_th) = b_th / f0^3 (docs/ARCHITECTURE.md §3).
  sigma_th_ = std::sqrt(config.b_th / (config.f0 * config.f0 * config.f0));

  if (config.b_fl > 0.0) {
    // Two-sided per-period flicker-jitter PSD: (b_fl/f0^4)/f.
    flicker_.emplace(noise::flicker_band_config(
        config.b_fl / (config.f0 * config.f0 * config.f0 * config.f0),
        config.f0, config.f0 * config.flicker_floor_ratio,
        config.seed ^ 0xf11c4e5eedULL, config.flicker_stages_per_decade,
        noise::resolved_sampler(config)));
  }
}

PeriodSample RingOscillator::next_period() {
  PeriodSample s;
  s.thermal = sigma_th_ * gauss_();
  s.flicker = flicker_ ? flicker_->next() : 0.0;
  double t = t_nom_ + s.thermal + s.flicker;
  if (modulation_) {
    // df/f = m  =>  dT/T = -m to first order.
    const double m = modulation_(edge_time_.value());
    t *= (1.0 - m);
  }
  s.period = t;
  edge_time_.add(t);
  ++cycles_;
  return s;
}

void RingOscillator::next_periods(std::span<PeriodSample> out) {
  if (out.empty()) return;
  if (modulation_) {
    // The hook must see every edge time; no batch shortcut exists.
    for (auto& s : out) s = next_period();
    return;
  }
  // Thermal and flicker ride independent streams, so drawing all thermal
  // samples first and then one flicker block consumes each stream in the
  // exact order next_period() would.
  thermal_scratch_.resize(out.size());
  gauss_.fill(thermal_scratch_);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i].thermal = sigma_th_ * thermal_scratch_[i];
  if (flicker_) {
    flicker_scratch_.resize(out.size());
    flicker_->fill(flicker_scratch_);
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i].flicker = flicker_scratch_[i];
  } else {
    for (auto& s : out) s.flicker = 0.0;
  }
  for (auto& s : out) {
    s.period = t_nom_ + s.thermal + s.flicker;
    edge_time_.add(s.period);
  }
  cycles_ += out.size();
}

void RingOscillator::next_edges(std::span<double> out) {
  if (out.empty()) return;
  if (modulation_) {
    // The hook must see every edge time; no batch shortcut exists.
    for (auto& t : out) {
      next_period();
      t = edge_time_.value();
    }
    return;
  }
  thermal_scratch_.resize(out.size());
  gauss_.fill(thermal_scratch_);
  if (flicker_) {
    flicker_scratch_.resize(out.size());
    flicker_->fill(flicker_scratch_);
  }
  // Same per-period arithmetic and Kahan accumulation as next_period:
  // t_nom + thermal + flicker in that order, one compensated add per
  // edge, reading the running value after each.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double th = sigma_th_ * thermal_scratch_[i];
    const double fl = flicker_ ? flicker_scratch_[i] : 0.0;
    edge_time_.add(t_nom_ + th + fl);
    out[i] = edge_time_.value();
  }
  cycles_ += out.size();
}

void RingOscillator::advance_periods(std::uint64_t k) {
  if (k == 0) return;
  if (k < 8) {
    for (std::uint64_t i = 0; i < k; ++i) next_period();
    return;
  }
  if (modulation_) {
    // The hook must sample the (smooth, deterministic) modulation densely
    // enough; 64-period chunks keep the midpoint-rule error negligible
    // for beats far below f0/64 while staying ~64x faster than stepping.
    std::uint64_t left = k;
    while (left > 0) {
      const std::uint64_t chunk = std::min<std::uint64_t>(left, 64);
      if (chunk < 8) {
        for (std::uint64_t i = 0; i < chunk; ++i) next_period();
        left -= chunk;
        continue;
      }
      const double cd = static_cast<double>(chunk);
      double elapsed = cd * t_nom_ + sigma_th_ * std::sqrt(cd) * gauss_();
      if (flicker_) elapsed += flicker_->advance_sum(chunk);
      const double t_mid =
          edge_time_.value() + 0.5 * cd * t_nom_;
      elapsed *= (1.0 - modulation_(t_mid));
      edge_time_.add(elapsed);
      cycles_ += chunk;
      left -= chunk;
    }
    return;
  }
  const double kd = static_cast<double>(k);
  double elapsed = kd * t_nom_ + sigma_th_ * std::sqrt(kd) * gauss_();
  if (flicker_) elapsed += flicker_->advance_sum(k);
  edge_time_.add(elapsed);
  cycles_ += k;
}

EdgeBracket RingOscillator::advance_to_block(double t_target,
                                             EdgeBracket bracket) {
  PTRNG_EXPECTS(bracket.next == edge_time());
  if (modulation_) {
    // No closed form for the modulated elapsed time: jump 90% of the
    // remaining gap (advance_periods integrates the modulation in
    // 64-period chunks) until fewer than 16 periods remain.
    for (;;) {
      const double gap = t_target - bracket.next;
      const auto skip =
          static_cast<std::uint64_t>(std::max(0.0, 0.9 * gap / t_nom_));
      if (skip < 16) break;
      advance_periods(skip);
      bracket.next = edge_time();
    }
  } else {
    // One jump sized from the oscillator's own accumulated jitter
    // (Eq. 11's sigma_N: thermal plus the flicker bank's sum variance).
    const std::uint64_t skip = jump_periods(
        (t_target - bracket.next) / t_nom_, t_nom_, [this](std::uint64_t n) {
          double var = static_cast<double>(n) * sigma_th_ * sigma_th_;
          if (flicker_) var += flicker_->sum_variance(n);
          return std::sqrt(var);
        });
    if (skip > 0) {
      // Jump skip + 1 periods and take the last one from the jump: after
      // advance_sum(skip + 1) the bank's state sum is exactly the last
      // period's flicker, and its thermal draw is independent of the
      // head's, so the edge at `skip` and the one after it come out with
      // their stepped joint law. The loop below then steps only when
      // that edge is still at or before the target.
      const double kd = static_cast<double>(skip);
      double head = kd * t_nom_ + sigma_th_ * std::sqrt(kd) * gauss_();
      double last = t_nom_ + sigma_th_ * gauss_();
      if (flicker_) {
        head += flicker_->advance_sum(skip + 1);
        const double fl_last = flicker_->last_sample();
        head -= fl_last;
        last += fl_last;
      }
      edge_time_.add(head);
      bracket.prev = edge_time();
      edge_time_.add(last);
      bracket.next = edge_time();
      cycles_ += skip + 1;
    }
  }
  while (bracket.next <= t_target) {
    bracket.prev = bracket.next;
    next_period();
    bracket.next = edge_time();
  }
  return bracket;
}

void RingOscillator::set_modulation(std::function<double(double)> modulation) {
  modulation_ = std::move(modulation);
}

}  // namespace ptrng::oscillator
