#include "oscillator/ring_oscillator.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace ptrng::oscillator {

namespace {

// The clock of a sinusoidally modulated ring (docs/ARCHITECTURE.md §5,
// "Modulated rings jump on their own clock"). Stepping scales each
// period by 1 - m at its start edge, so the noise-free edges follow the
// forward-Euler map
// t_{i+1} = t_i + T (1 - d sin(w t_i)) of the period-count ODE
// dt/dn = T (1 - d sin(w t)). That map runs half a period ahead of the
// ODE; up to O(d (w T)^2) per period it is the exact flow of
// dt/dn = T (1 - d sin(w t)) (1 + w T d cos(w t) / 2), whose period
// count has the closed form
//   N(t) = F(w t) / (w T) + ln(1 - d sin(w t)) / 2,
//   F(x) = integral of dx / (1 - d sin x)
//        = (2 / r) atan((tan(x/2) - d) / r),   r = sqrt(1 - d^2)
// (tan-half-angle substitution). F is evaluated as
//   (x + 2 atan((s (1 - r) - d (1 + c)) / (1 + r - c (1 - r) - d s))) / r
// with s, c = sin x, cos x, which is the same function made continuous
// across tan's branch cuts: the denominator stays >= 2r - d > 0.
// A stepped period's jitter J shifts every later edge along that flow,
// so it moves N by J / T (to a factor 1 +- w T d / 2): each period
// advances N by its free-running length in nominal periods. The ring
// keeps N at its latest edge (RingOscillator::count_), and a jump lands
// where N has grown by the free-running jump's elapsed time over T.
// Noise-free, the jumped edges stay within about d w T / 6 periods of
// the stepped ones.
struct PeriodCount {
  double n;     ///< N(t) [periods]
  double span;  ///< 1 / N'(t), the local period [s]
  double bend;  ///< N''(t) / N'(t) [1/s]
};

PeriodCount period_count(const SinusoidalModulation& mod, double period,
                         double t) {
  const double d = mod.depth;
  const double w = constants::two_pi * mod.f_beat;
  const double x = w * t;
  const double s = std::sin(x);
  const double c = std::cos(x);
  const double r = std::sqrt(1.0 - d * d);
  const double q = d * d / (1.0 + r);  // 1 - r without cancellation
  const double wt = w * period;
  const double a = 0.5 * wt * d;
  const double slow = 1.0 - d * s;  // 1 - m
  const double lead = 1.0 - a * c;
  const double f =
      x + 2.0 * std::atan((s * q - d * (1.0 + c)) / (1.0 + r - c * q - d * s));
  return {f * (1.0 / (r * wt)) + 0.5 * std::log1p(-d * s),
          period * slow / lead,
          w * (a * s * slow + lead * d * c) / (slow * lead)};
}

// Time at which N reaches `count`, starting from N's evaluation `at` at
// time t: step by the series reversion of N's second-order expansion,
// u - bend u^2 / 2 for the Newton step u, and evaluate N again only
// while the step's expected error exceeds 1e-6 period, below the closed
// form's own agreement with stepping (about d w T / 6 periods) and far
// below any jitter. A step of e periods leaves at most about
// kappa (kappa + w T) e^3 periods, kappa = d w T / (1 - d) the rate's
// relative change per period. Far from the root (|bend u| >= 1/2, many
// beat cycles away) the step is Newton's alone, which leaves about
// kappa e^2 / 2; the rate varies by at most a factor (1 + d) / (1 - d),
// so that contracts from any start for d < 1/3.
double time_at_count(const SinusoidalModulation& mod, double period,
                     PeriodCount at, double t, double count) {
  const double wt = constants::two_pi * mod.f_beat * period;
  const double kappa = mod.depth * wt / (1.0 - mod.depth);
  for (int i = 0;; ++i) {
    const double u = (count - at.n) * at.span;
    const double e = u / period;
    double error;
    if (std::abs(at.bend * u) < 0.5) {
      t += u - 0.5 * at.bend * u * u;
      error = kappa * (kappa + wt) * std::abs(e * e * e);
    } else {
      t += u;
      error = 0.5 * kappa * e * e;
    }
    if (!(error > 1e-6) || i == 64) return t;
    at = period_count(mod, period, t);
  }
}

}  // namespace

RingOscillator::RingOscillator(const RingOscillatorConfig& config)
    : config_(config), gauss_(config.seed, config.sampler.gauss_method) {
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
        config.sampler));
  }
}

PeriodSample RingOscillator::next_period() {
  PeriodSample s;
  s.thermal = sigma_th_ * gauss_();
  s.flicker = flicker_ ? flicker_->next() : 0.0;
  double t = t_nom_ + s.thermal + s.flicker;
  if (modulated()) {
    // The count advances by the unscaled period in nominal periods;
    // df/f = m  =>  dT/T = -m to first order.
    count_ += t / t_nom_;
    t *= 1.0 - modulation_(edge_time_.value());
  }
  s.period = t;
  edge_time_.add(t);
  ++cycles_;
  return s;
}

void RingOscillator::next_periods(std::span<PeriodSample> out) {
  if (out.empty()) return;
  if (modulated()) {
    // Each period's scale depends on its start edge; no batch shortcut.
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

void RingOscillator::advance_periods(std::uint64_t k) {
  if (k == 0) return;
  if (k < 8) {
    for (std::uint64_t i = 0; i < k; ++i) next_period();
    return;
  }
  double elapsed =
      static_cast<double>(k) * t_nom_ + thermal_scale(k) * gauss_();
  if (flicker_) elapsed += flicker_->advance_sum(k);
  add_block(elapsed);
  cycles_ += k;
}

void RingOscillator::advance_periods(std::uint64_t k,
                                     std::span<double> edges) {
  if (k < 8) {
    for (auto& edge : edges) {
      advance_periods(k);
      edge = edge_time();
    }
    return;
  }
  PTRNG_EXPECTS(edges.size() <= noise::FilterBankFlicker::kMaxSumBlocks);
  if (edges.empty()) return;
  thermal_scratch_.resize(edges.size());
  gauss_.fill(thermal_scratch_);
  if (flicker_) {
    flicker_scratch_.resize(edges.size());
    flicker_->advance_sums(k, flicker_scratch_);
  }
  const double scale = thermal_scale(k);
  for (std::size_t j = 0; j < edges.size(); ++j) {
    double elapsed =
        static_cast<double>(k) * t_nom_ + scale * thermal_scratch_[j];
    if (flicker_) elapsed += flicker_scratch_[j];
    add_block(elapsed);
    edges[j] = edge_time();
  }
  cycles_ += k * edges.size();
}

void RingOscillator::add_block(double elapsed) {
  if (modulated()) {
    // Run the free-running block on the ring's own clock: its jitter is
    // a count offset like the periods themselves. The free-running
    // landing is within d k periods of the modulated one.
    const double t0 = edge_time_.value();
    const double t1 = t0 + elapsed;
    count_ += elapsed / t_nom_;
    elapsed = time_at_count(modulation_, t_nom_,
                            period_count(modulation_, t_nom_, t1), t1,
                            count_) -
              t0;
  }
  edge_time_.add(elapsed);
}

EdgeBracket RingOscillator::advance_to_block(double t_target,
                                             EdgeBracket bracket) {
  PTRNG_EXPECTS(bracket.next == edge_time());
  // Jumps sized from the oscillator's own accumulated jitter (Eq. 11's
  // sigma_N: thermal plus the flicker bank's sum variance), with the gap
  // counted on the ring's own clock N. A stepped period's jitter J moves
  // that count by J / T within a factor 1 +- w T d / 2, which the
  // widening of sigma_N by 1 + d bounds. An unmodulated ring repeats the
  // jump while the remaining gap still allows one: at large gaps the
  // first jump's margin spans many periods, and each repeat covers most
  // of what is left in one draw instead of a step per period. The
  // modulated ring keeps its single jump.
  double gap = (t_target - bracket.next) / t_nom_;
  PeriodCount to{};
  if (modulated()) {
    to = period_count(modulation_, t_nom_, t_target);
    gap = to.n - count_;
  }
  const double widen = 1.0 + modulation_.depth;
  const auto stddev = [this, widen](std::uint64_t n) {
    double var = static_cast<double>(n) * sigma_th_ * sigma_th_;
    if (flicker_) var += flicker_->sum_variance(n);
    return widen * std::sqrt(var);
  };
  for (std::uint64_t skip = jump_periods(gap, t_nom_, stddev, &margin_memo_,
                                         modulation_.depth);
       skip > 0;) {
    // Jump skip + 1 periods and take the last one from the jump: after
    // advance_sum(skip + 1) the bank's state sum is exactly the last
    // period's flicker, and its thermal draw is independent of the
    // head's, so the edge at `skip` and the one after it come out with
    // their stepped joint law. The loop below then steps only when
    // that edge is still at or before the target.
    double head =
        static_cast<double>(skip) * t_nom_ + thermal_scale(skip) * gauss_();
    double last = t_nom_ + sigma_th_ * gauss_();
    if (flicker_) {
      head += flicker_->advance_sum(skip + 1);
      const double fl_last = flicker_->last_sample();
      head -= fl_last;
      last += fl_last;
    }
    if (modulated()) {
      // Both realized edges on the ring's own clock: their counts are the
      // head and the last period in nominal periods past the latest
      // edge's count, and their times come from N's expansion at the
      // target, a period or so away.
      const double landing = count_ + head / t_nom_;
      count_ = landing + last / t_nom_;
      const double t_land =
          time_at_count(modulation_, t_nom_, to, t_target, landing);
      last = time_at_count(modulation_, t_nom_, to, t_target, count_) - t_land;
      head = t_land - bracket.next;
    }
    edge_time_.add(head);
    bracket.prev = edge_time();
    edge_time_.add(last);
    bracket.next = edge_time();
    cycles_ += skip + 1;
    // jump_periods never jumps a gap within 1 + kMarginPeriods periods,
    // the usual remainder, so test that before dividing.
    if (modulated() ||
        !(t_target - bracket.next > (1.0 + kMarginPeriods) * t_nom_))
      break;
    skip = jump_periods((t_target - bracket.next) / t_nom_, t_nom_, stddev,
                        &margin_memo_);
  }
  while (bracket.next <= t_target) {
    bracket.prev = bracket.next;
    next_period();
    bracket.next = edge_time();
  }
  return bracket;
}

void RingOscillator::set_modulation(SinusoidalModulation modulation) {
  PTRNG_EXPECTS(modulation.depth >= 0.0 && modulation.depth < 0.25);
  PTRNG_EXPECTS(modulation.depth == 0.0 ||
                (modulation.f_beat > 0.0 && std::isfinite(modulation.f_beat)));
  modulation_ = modulation;
  if (modulated()) count_ = period_count(modulation_, t_nom_, edge_time()).n;
}

}  // namespace ptrng::oscillator
