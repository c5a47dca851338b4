#include "noise/filter_bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace ptrng::noise {

namespace {

/// Two-sided PSD of a unit-variance AR(1) stage with pole rho at rate fs:
/// the stationary process x_n = rho*x_{n-1} + sqrt(1-rho^2)*w_n.
double stage_psd(double rho, double fs, double f) {
  const double omega = constants::two_pi * f / fs;
  const double denom = 1.0 - 2.0 * rho * std::cos(omega) + rho * rho;
  return (1.0 - rho * rho) / (fs * denom);
}

/// Per-stage Gaussian block size of fill(): large enough to amortize the
/// per-block pool dispatch (one parallel_for per block), small enough
/// that the stages x block staging buffer stays modest — 64 KiB per
/// stage, ~1.2 MiB at the default ~19 stages (L2/L3 territory; the
/// Gaussian math, not staging bandwidth, dominates the block time).
constexpr std::size_t kFillBlock = 8192;

/// Below this many staged samples per block (n * stages) the fill runs
/// its tasks inline instead of through parallel_for: the counter path
/// asks for blocks of a few dozen samples, where pool dispatch costs
/// more than the work. Output is identical either way (per-stage
/// streams make the task schedule irrelevant), so the cutover is pure
/// policy.
constexpr std::size_t kInlineFillWork = 4096;

// SIMD pack kernels (docs/ARCHITECTURE.md §5 "SIMD rules"). A pack is
// 4 consecutive stages riding one vector lane-wise through time; their
// Gaussians arrive interleaved from GaussianSampler::fill_lanes
// (z[4*i + lane]). No fused multiply-add: the scalar recurrence rounds
// rho*x and drive*z separately, so the kernel must too.

/// In-place AR(1) recurrence over one pack: z holds n interleaved
/// innovation vectors on entry, n interleaved state vectors on exit;
/// state[0..3] carries the pack's AR(1) states across blocks.
PTRNG_SIMD_TARGET void ar1_pack4(const double* rho, const double* drive,
                                 double* state, double* z,
                                 std::size_t n) noexcept {
  const simd::f64x4 r = simd::load4(rho);
  const simd::f64x4 d = simd::load4(drive);
  simd::f64x4 x = simd::load4(state);
  for (std::size_t i = 0; i < n; ++i) {
    const simd::f64x4 zi = simd::load4(z + 4 * i);
    x = r * x + d * zi;  // mul + mul + add, exactly the scalar rounding
    simd::store4(z + 4 * i, x);
  }
  simd::store4(state, x);
}

/// Folds one pack's staged states into the output block, preserving the
/// per-sample stage accumulation order of next(): transpose 4 time
/// steps x 4 stages, then add the stage columns to the running
/// accumulator lowest stage first. `first` marks the stage-0 pack,
/// whose lowest stage initializes the accumulator (the fold's
/// std::copy).
PTRNG_SIMD_TARGET void fold_pack4(double* out, const double* z, std::size_t n,
                                  bool first) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    simd::f64x4 s0 = simd::load4(z + 4 * i);
    simd::f64x4 s1 = simd::load4(z + 4 * i + 4);
    simd::f64x4 s2 = simd::load4(z + 4 * i + 8);
    simd::f64x4 s3 = simd::load4(z + 4 * i + 12);
    simd::transpose4(s0, s1, s2, s3);  // now one vector per stage
    simd::f64x4 acc = first ? s0 : simd::load4(out + i) + s0;
    acc = acc + s1;
    acc = acc + s2;
    acc = acc + s3;
    simd::store4(out + i, acc);
  }
  for (; i < n; ++i) {  // time tail, scalar but same stage order
    double acc = first ? z[4 * i] : out[i] + z[4 * i];
    acc += z[4 * i + 1];
    acc += z[4 * i + 2];
    acc += z[4 * i + 3];
    out[i] = acc;
  }
}

/// fold_pack4 for a PADDED pack: only the first `count` (1..3) lanes
/// are real stages; the dummy lanes never touch the accumulator.
PTRNG_SIMD_TARGET void fold_pack4_partial(double* out, const double* z,
                                          std::size_t n, bool first,
                                          std::size_t count) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    simd::f64x4 s0 = simd::load4(z + 4 * i);
    simd::f64x4 s1 = simd::load4(z + 4 * i + 4);
    simd::f64x4 s2 = simd::load4(z + 4 * i + 8);
    simd::f64x4 s3 = simd::load4(z + 4 * i + 12);
    simd::transpose4(s0, s1, s2, s3);
    simd::f64x4 acc = first ? s0 : simd::load4(out + i) + s0;
    if (count > 1) acc = acc + s1;
    if (count > 2) acc = acc + s2;
    simd::store4(out + i, acc);
  }
  for (; i < n; ++i) {
    double acc = first ? z[4 * i] : out[i] + z[4 * i];
    for (std::size_t j = 1; j < count; ++j) acc += z[4 * i + j];
    out[i] = acc;
  }
}

// Per-call pack kernels for next() and advance_sum(): each call takes
// draw i of every stage from the draw-ahead block, where a pack's four
// draws sit contiguous (pack base + 4*i) and packs lie `stride` apart.
// The kernels compute lane-wise and then fold the lanes into the
// running sums one stage at a time, lowest first: the scalar loop's
// exact operations and accumulation order, so they are bit-identical
// to it.

/// next() over the full packs: x = rho*x + drive*z per stage, the new
/// states added to `sum` in stage order.
PTRNG_SIMD_TARGET double step_packs(const double* rho, const double* drive,
                                    double* state, const double* z,
                                    std::size_t stride, std::size_t packed,
                                    double sum) noexcept {
  for (std::size_t s = 0; s < packed; s += simd::kLanes, z += stride) {
    const simd::f64x4 x = simd::load4(rho + s) * simd::load4(state + s) +
                          simd::load4(drive + s) * simd::load4(z);
    simd::store4(state + s, x);
    alignas(32) double lane[simd::kLanes];
    simd::store4(lane, x);
    for (const double v : lane) sum += v;
  }
  return sum;
}

/// advance_sum() over the full packs: per stage the end-state shock
/// sd_x*z, the contribution mean_coef*x + slope*shock added to `total`
/// in stage order, and the end state q*x + shock.
PTRNG_SIMD_TARGET double advance_packs(const double* q, const double* sd_x,
                                       const double* mean_coef,
                                       const double* slope, double* state,
                                       const double* z, std::size_t stride,
                                       std::size_t packed,
                                       double total) noexcept {
  for (std::size_t s = 0; s < packed; s += simd::kLanes, z += stride) {
    const simd::f64x4 x = simd::load4(state + s);
    const simd::f64x4 shock = simd::load4(sd_x + s) * simd::load4(z);
    simd::store4(state + s, simd::load4(q + s) * x + shock);
    alignas(32) double contrib[simd::kLanes];
    simd::store4(contrib, simd::load4(mean_coef + s) * x +
                              simd::load4(slope + s) * shock);
    for (const double c : contrib) total += c;
  }
  return total;
}

/// advance_sums() over the full packs, block after block: the packs'
/// share of c.xhat into out[j], as four lane partial sums over the packs
/// folded lane 0 first, then xhat = q o xhat + gain_j * z_j. `gain` is
/// block-major with `stride` entries per block. sums_packs_scalar is the
/// same computation lane by lane, so both paths give the same bits.
PTRNG_SIMD_TARGET void sums_packs(const double* c, const double* q,
                                  const double* gain, std::size_t stride,
                                  double* xhat, const double* z,
                                  std::size_t blocks, std::size_t packed,
                                  double* out) noexcept {
  for (std::size_t j = 0; j < blocks; ++j, gain += stride) {
    simd::f64x4 acc = simd::splat4(0.0);
    for (std::size_t s = 0; s < packed; s += simd::kLanes)
      acc = acc + simd::load4(c + s) * simd::load4(xhat + s);
    alignas(32) double lane[simd::kLanes];
    simd::store4(lane, acc);
    out[j] = ((lane[0] + lane[1]) + lane[2]) + lane[3];
    const simd::f64x4 zj = simd::splat4(z[j]);
    for (std::size_t s = 0; s < packed; s += simd::kLanes)
      simd::store4(xhat + s, simd::load4(q + s) * simd::load4(xhat + s) +
                                 simd::load4(gain + s) * zj);
  }
}

void sums_packs_scalar(const double* c, const double* q, const double* gain,
                       std::size_t stride, double* xhat, const double* z,
                       std::size_t blocks, std::size_t packed,
                       double* out) noexcept {
  for (std::size_t j = 0; j < blocks; ++j, gain += stride) {
    double lane[simd::kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t s = 0; s < packed; ++s) lane[s & 3] += c[s] * xhat[s];
    out[j] = ((lane[0] + lane[1]) + lane[2]) + lane[3];
    for (std::size_t s = 0; s < packed; ++s)
      xhat[s] = q[s] * xhat[s] + gain[s] * z[j];
  }
}

}  // namespace

FilterBankFlicker::FilterBankFlicker(const Config& config)
    : fs_(config.fs),
      amplitude_(config.amplitude),
      f_min_(config.f_min),
      f_max_(config.f_max > 0.0 ? config.f_max : config.fs / 4.0) {
  PTRNG_EXPECTS(fs_ > 0.0);
  PTRNG_EXPECTS(amplitude_ >= 0.0);
  PTRNG_EXPECTS(f_min_ > 0.0 && f_max_ > f_min_);
  PTRNG_EXPECTS(f_max_ <= fs_ / 2.0);
  PTRNG_EXPECTS(config.stages_per_decade >= 1);

  // Corner frequencies log-spaced from f_min to f_max.
  const double decades = std::log10(f_max_ / f_min_);
  const auto n_stages = static_cast<std::size_t>(std::ceil(
                            decades * config.stages_per_decade)) + 1;
  rho_.reserve(n_stages);
  for (std::size_t k = 0; k < n_stages; ++k) {
    const double frac = static_cast<double>(k) /
                        static_cast<double>(std::max<std::size_t>(1, n_stages - 1));
    const double fc = f_min_ * std::pow(f_max_ / f_min_, frac);
    rho_.push_back(std::exp(-constants::two_pi * fc / fs_));
  }

  // Calibrate the common stage variance g^2 so that the analytic stage sum
  // matches amplitude/f in least squares over a log grid inside the band.
  const auto grid = logspace(f_min_ * 2.0, f_max_ / 2.0, 64);
  double num = 0.0;
  double den = 0.0;
  for (double f : grid) {
    double sum = 0.0;
    for (double rho : rho_) sum += stage_psd(rho, fs_, f);
    const double target = 1.0 / f;  // shape only; amplitude applied below
    // Fit in log space with equal weights: minimize sum (g2*sum - target)^2
    // / target^2  =>  g2 = sum(sum/target) / sum((sum/target)^2).
    const double ratio = sum / target;
    num += ratio;
    den += ratio * ratio;
  }
  PTRNG_EXPECTS(den > 0.0);
  const double g2 = amplitude_ * num / den;

  sigma_.assign(rho_.size(), std::sqrt(g2));
  drive_.resize(rho_.size());
  inv_one_m_rho_.resize(rho_.size());
  inv_one_m_rho2_.resize(rho_.size());
  for (std::size_t k = 0; k < rho_.size(); ++k) {
    const double rho = rho_[k];
    drive_[k] = sigma_[k] * std::sqrt(1.0 - rho * rho);
    inv_one_m_rho_[k] = 1.0 / (1.0 - rho);
    inv_one_m_rho2_[k] = 1.0 / (1.0 - rho * rho);
  }

  packed_stages_ = rho_.size() & ~std::size_t{3};

  // One decorrelated stream per stage; each stage starts in its
  // stationary distribution drawn from its own stream.
  gauss_.reserve(rho_.size());
  state_.resize(rho_.size());
  const auto gauss_method = config.sampler.gauss_method;
  for (std::size_t k = 0; k < rho_.size(); ++k) {
    gauss_.emplace_back(chunk_seed(config.seed, k), gauss_method);
    state_[k] = gauss_[k](0.0, sigma_[k]);
  }
  sum_states();
  resid_gauss_ = GaussianSampler(chunk_seed(config.seed, rho_.size()),
                                 gauss_method);
}

void FilterBankFlicker::sum_states() noexcept {
  double sum = 0.0;
  for (const double x : state_) sum += x;
  state_sum_ = sum;
}

std::size_t FilterBankFlicker::take_ahead() {
  if (ahead_pos_ == kAhead) {
    // Refill the drained block — packs through fill_lanes, the tail
    // stage by stage. Each stage's stream is consumed strictly in order,
    // so the buffered values are exactly what per-call draws would be.
    const std::size_t n_stages = rho_.size();
    ahead_.resize(n_stages * kAhead);
    for (std::size_t p = 0; p < packed_stages_; p += simd::kLanes) {
      GaussianSampler::fill_lanes(
          {&gauss_[p], &gauss_[p + 1], &gauss_[p + 2], &gauss_[p + 3]},
          {ahead_.data() + p * kAhead, simd::kLanes * kAhead});
    }
    for (std::size_t s = packed_stages_; s < n_stages; ++s)
      gauss_[s].fill({ahead_.data() + s * kAhead, kAhead});
    ahead_pos_ = 0;
  }
  return ahead_pos_++;
}

double FilterBankFlicker::next() {
  const std::size_t i = take_ahead();
  const std::size_t packed = simd::active() ? packed_stages_ : 0;
  double sum = step_packs(rho_.data(), drive_.data(), state_.data(),
                          ahead_.data() + 4 * i, simd::kLanes * kAhead,
                          packed, 0.0);
  for (std::size_t k = packed; k < rho_.size(); ++k) {
    state_[k] = rho_[k] * state_[k] + drive_[k] * ahead_[ahead_index(k, i)];
    sum += state_[k];
  }
  state_sum_ = sum;
  return sum;
}

void FilterBankFlicker::fill(std::span<double> out) {
  // Drain the draw-ahead block first: its draws precede anything the
  // block path below takes from the streams.
  const std::size_t drained = std::min(out.size(), kAhead - ahead_pos_);
  for (std::size_t i = 0; i < drained; ++i) out[i] = next();
  out = out.subspan(drained);
  const std::size_t n_stages = rho_.size();
  // SIMD pack path (docs/ARCHITECTURE.md §5 "SIMD rules"): 4 stages per
  // vector, lane-wise through time, fed interleaved by fill_lanes. Each
  // stage still consumes its own stream in next()'s order, so output is
  // bit-identical to the scalar path (and to stepping) at any thread
  // count; stages beyond the last full pack run the scalar per-stage
  // code unchanged — except a 3-stage tail, which is cheaper padded to
  // a full pack with one dummy lane (its own throwaway stream, drawn
  // and discarded, never folded) than run 3x through the scalar
  // sampler. 1- and 2-stage tails stay scalar: there the dummy lanes
  // would cost more than they save.
  const std::size_t n_packs = simd::active() ? n_stages / simd::kLanes : 0;
  const bool pad_tail = simd::active() && n_stages % simd::kLanes == 3 &&
                        !gauss_.empty() &&
                        gauss_[0].method() == GaussianSampler::Method::Ziggurat;
  const std::size_t n_tail =
      pad_tail ? 0 : n_stages - simd::kLanes * n_packs;
  const std::size_t n_vec_packs = n_packs + (pad_tail ? 1 : 0);
  for (std::size_t offset = 0; offset < out.size(); offset += kFillBlock) {
    const std::size_t n = std::min(kFillBlock, out.size() - offset);
    scratch_.resize((simd::kLanes * n_vec_packs + n_tail) * n);
    // The per-stage AR(1) recurrences are fully independent (private
    // stream, private state): one pack or tail stage per task on the
    // common pool. Scratch layout: pack p (padded pack included) owns
    // the interleaved slice [4*p*n, 4*(p+1)*n); tail stage j owns the
    // stage-major slice at (4*n_vec_packs + j)*n.
    auto run_task = [&](std::size_t t) {
      if (t < n_packs) {
        const std::size_t s0 = simd::kLanes * t;
        double* const z = scratch_.data() + s0 * n;
        GaussianSampler::fill_lanes(
            {&gauss_[s0], &gauss_[s0 + 1], &gauss_[s0 + 2], &gauss_[s0 + 3]},
            {z, simd::kLanes * n});
        ar1_pack4(&rho_[s0], &drive_[s0], &state_[s0], z, n);
      } else if (pad_tail && t == n_packs) {
        // Padded pack: 3 real stages + 1 dummy lane. The dummy draws
        // from a lane-local stream and its recurrence runs with
        // rho = drive = 0; nothing of it survives the fold, so output
        // matches the scalar tail bit for bit.
        const std::size_t s0 = simd::kLanes * n_packs;
        double* const z = scratch_.data() + s0 * n;
        GaussianSampler dummy(0xd0d0'0000 + offset);
        GaussianSampler::fill_lanes(
            {&gauss_[s0], &gauss_[s0 + 1], &gauss_[s0 + 2], &dummy},
            {z, simd::kLanes * n});
        double rho_p[4] = {rho_[s0], rho_[s0 + 1], rho_[s0 + 2], 0.0};
        double drive_p[4] = {drive_[s0], drive_[s0 + 1], drive_[s0 + 2], 0.0};
        double state_p[4] = {state_[s0], state_[s0 + 1], state_[s0 + 2], 0.0};
        ar1_pack4(rho_p, drive_p, state_p, z, n);
        state_[s0] = state_p[0];
        state_[s0 + 1] = state_p[1];
        state_[s0 + 2] = state_p[2];
      } else {
        const std::size_t j = t - n_vec_packs;
        const std::size_t s = simd::kLanes * n_packs + j;
        double* const zs =
            scratch_.data() + (simd::kLanes * n_vec_packs + j) * n;
        gauss_[s].fill({zs, n});
        const double rho = rho_[s];
        const double drive = drive_[s];
        double x = state_[s];
        for (std::size_t i = 0; i < n; ++i) {
          x = rho * x + drive * zs[i];
          zs[i] = x;
        }
        state_[s] = x;
      }
    };
    const std::size_t n_tasks = n_vec_packs + n_tail;
    if (n * n_stages < kInlineFillWork) {
      for (std::size_t t = 0; t < n_tasks; ++t) run_task(t);
    } else {
      parallel_for(0, n_tasks, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) run_task(t);
      });
    }
    // Fold the stage contributions in stage order — the exact per-sample
    // accumulation order of next() — so the block is bit-identical to
    // stepping for any PTRNG_THREADS. Packs fold through the 4x4
    // transpose kernel, still lowest stage first per sample.
    double* const block = out.data() + offset;
    bool first = true;
    for (std::size_t p = 0; p < n_packs; ++p) {
      fold_pack4(block, scratch_.data() + simd::kLanes * p * n, n, first);
      first = false;
    }
    if (pad_tail) {
      fold_pack4_partial(block, scratch_.data() + simd::kLanes * n_packs * n,
                         n, first, 3);
      first = false;
    }
    for (std::size_t j = 0; j < n_tail; ++j) {
      const double* const zs =
          scratch_.data() + (simd::kLanes * n_vec_packs + j) * n;
      if (first) {
        std::copy(zs, zs + n, block);
        first = false;
      } else {
        for (std::size_t i = 0; i < n; ++i) block[i] += zs[i];
      }
    }
  }
  sum_states();
}

const FilterBankFlicker::AdvanceCacheEntry& FilterBankFlicker::advance_terms(
    std::size_t k) {
  for (const auto& entry : advance_cache_)
    if (entry.k == k) return entry;
  AdvanceCacheEntry& entry = advance_cache_[advance_cache_next_];
  advance_cache_next_ = (advance_cache_next_ + 1) % advance_cache_.size();
  entry.k = k;
  for (auto* terms : {&entry.q, &entry.sd_x, &entry.mean_coef, &entry.slope})
    terms->resize(rho_.size());
  entry.sum_variance = 0.0;
  double resid_var = 0.0;
  const double kd = static_cast<double>(k);
  for (std::size_t s = 0; s < rho_.size(); ++s) {
    const double rho = rho_[s];
    const double g2 = drive_[s] * drive_[s];
    const double q = std::pow(rho, kd);  // rho^k
    // x_k = q*x_0 + sum_i rho^{k-i} g w_i ;  S = sum_{i=1..k} x_i.
    // Conditional (on x_0) moments, via the precomputed geometric terms:
    const double geo = (1.0 - q) * inv_one_m_rho_[s];  // sum rho^j, j<k
    const double geo2 = (1.0 - q * q) * inv_one_m_rho2_[s];
    const double var_x = g2 * geo2;
    // Cov(S, x_k) = g^2 * [geo - rho*geo2] / (1-rho)
    const double cov = g2 * (geo - rho * geo2) * inv_one_m_rho_[s];
    // Var(S) = g^2 * [k - 2 rho geo + rho^2 geo2] / (1-rho)^2
    const double var_s = g2 * (kd - 2.0 * rho * geo + rho * rho * geo2) *
                         inv_one_m_rho_[s] * inv_one_m_rho_[s];
    const double mean_coef = rho * geo;
    const double sd_x = std::sqrt(std::max(0.0, var_x));
    const double slope = sd_x > 0.0 ? cov / var_x : 0.0;
    entry.q[s] = q;
    entry.mean_coef[s] = mean_coef;
    entry.sd_x[s] = sd_x;
    entry.slope[s] = slope;
    // Var(S | x_0, end-state shock): what the regression leaves over.
    resid_var += std::max(0.0, var_s - slope * cov);
    // Var(S) = Var(E[S|x_0]) + E[Var(S|x_0)], x_0 ~ N(0, sigma^2).
    entry.sum_variance += mean_coef * mean_coef * sigma_[s] * sigma_[s] +
                          std::max(0.0, var_s);
  }
  entry.resid_sd = std::sqrt(resid_var);
  return entry;
}

double FilterBankFlicker::sum_variance(std::size_t k) {
  PTRNG_EXPECTS(k >= 1);
  return advance_terms(k).sum_variance;
}

double FilterBankFlicker::advance_sum(std::size_t k) {
  PTRNG_EXPECTS(k >= 1);
  if (k == 1) return next();
  // Per stage, the (sum, end state) pair is jointly Gaussian given the
  // current state: one draw sets the end-state shock, and the sum is its
  // regression on that shock plus an independent residual. Callers read
  // only the total, and the stages' residuals are independent, so their
  // sum is ONE Gaussian with the pooled stddev: the same joint law from
  // one draw per stage plus one.
  const AdvanceCacheEntry& entry = advance_terms(k);
  const std::size_t i = take_ahead();
  const std::size_t packed = simd::active() ? packed_stages_ : 0;
  double total = advance_packs(
      entry.q.data(), entry.sd_x.data(), entry.mean_coef.data(),
      entry.slope.data(), state_.data(), ahead_.data() + 4 * i,
      simd::kLanes * kAhead, packed, 0.0);
  for (std::size_t s = packed; s < rho_.size(); ++s) {
    const double shock = entry.sd_x[s] * ahead_[ahead_index(s, i)];
    total += entry.mean_coef[s] * state_[s] + entry.slope[s] * shock;
    state_[s] = entry.q[s] * state_[s] + shock;
  }
  // A separate chain from total's, so the two folds overlap.
  sum_states();
  return total + entry.resid_sd * resid_gauss_();
}

const FilterBankFlicker::SumsPlan& FilterBankFlicker::sums_plan(
    std::size_t k, std::size_t blocks) {
  for (const auto& plan : sums_cache_)
    if (plan.k == k && plan.blocks == blocks) return plan;
  const AdvanceCacheEntry& terms = advance_terms(k);
  SumsPlan& plan = sums_cache_[sums_cache_next_];
  sums_cache_next_ = (sums_cache_next_ + 1) % sums_cache_.size();
  const std::size_t n = rho_.size();
  plan.k = k;
  plan.blocks = blocks;
  plan.scale.resize(blocks);
  plan.gain.resize(blocks * n);
  plan.chol.assign(n * n, 0.0);
  // Block model, per stage given the state x before the block (the
  // advance_sum law): end state q x + w, w ~ N(0, sd_x^2), and sum
  // c x + slope w + r, r the residual pooled over stages. So the sum's
  // noise has variance v_obs = sum slope^2 sd_x^2 + resid_sd^2 and
  // covariance slope sd_x^2 with each stage's w.
  std::vector<double> w_var(n), w_cov(n), pc(n), p(n * n, 0.0);
  double v_obs = terms.resid_sd * terms.resid_sd;
  for (std::size_t s = 0; s < n; ++s) {
    w_var[s] = terms.sd_x[s] * terms.sd_x[s];
    w_cov[s] = terms.slope[s] * w_var[s];
    v_obs += terms.slope[s] * w_cov[s];
  }
  // Kalman filter from a known state (P = 0). P is the covariance of the
  // state given the sums drawn so far; the innovation of block j has
  // variance c.Pc + v_obs and covariance q o Pc + w_cov with the block's
  // end state.
  const double* c = terms.mean_coef.data();
  const double* q = terms.q.data();
  for (std::size_t j = 0; j < blocks; ++j) {
    double f = v_obs;
    for (std::size_t s = 0; s < n; ++s) {
      double acc = 0.0;
      for (std::size_t t = 0; t < n; ++t) acc += p[s * n + t] * c[t];
      pc[s] = acc;
      f += c[s] * acc;
    }
    const double sf = std::sqrt(f);
    double* const g = plan.gain.data() + j * n;
    for (std::size_t s = 0; s < n; ++s) g[s] = (q[s] * pc[s] + w_cov[s]) / sf;
    plan.scale[j] = sf;
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t t = 0; t < n; ++t)
        p[s * n + t] = q[s] * q[t] * p[s * n + t] +
                       (s == t ? w_var[s] : 0.0) - g[s] * g[t];
  }
  // The end state's law given every drawn sum: N(xhat, P).
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t <= s; ++t) {
      double v = p[s * n + t];
      for (std::size_t u = 0; u < t; ++u)
        v -= plan.chol[s * n + u] * plan.chol[t * n + u];
      if (t == s) {
        PTRNG_ENSURES(v > 0.0);
        plan.chol[s * n + s] = std::sqrt(v);
      } else {
        plan.chol[s * n + t] = v / plan.chol[t * n + t];
      }
    }
  }
  return plan;
}

void FilterBankFlicker::advance_sums(std::size_t k, std::span<double> out) {
  PTRNG_EXPECTS(k >= 2);
  PTRNG_EXPECTS(!out.empty() && out.size() <= kMaxSumBlocks);
  const AdvanceCacheEntry& terms = advance_terms(k);
  const SumsPlan& plan = sums_plan(k, out.size());
  const std::size_t n = rho_.size();
  const std::size_t blocks = out.size();
  // One innovation per block, then one draw per stage for the end state.
  innovation_.resize(blocks + n);
  resid_gauss_.fill({innovation_.data(), blocks});
  const std::size_t i = take_ahead();
  for (std::size_t s = 0; s < n; ++s)
    innovation_[blocks + s] = ahead_[ahead_index(s, i)];
  const double* const z = innovation_.data();
  xhat_.assign(state_.begin(), state_.end());
  if (simd::active()) {
    sums_packs(terms.mean_coef.data(), terms.q.data(), plan.gain.data(), n,
               xhat_.data(), z, blocks, packed_stages_, out.data());
  } else {
    sums_packs_scalar(terms.mean_coef.data(), terms.q.data(),
                      plan.gain.data(), n, xhat_.data(), z, blocks,
                      packed_stages_, out.data());
  }
  for (std::size_t s = packed_stages_; s < n; ++s) {
    double x = xhat_[s];
    for (std::size_t j = 0; j < blocks; ++j) {
      out[j] += terms.mean_coef[s] * x;
      x = terms.q[s] * x + plan.gain[j * n + s] * z[j];
    }
    xhat_[s] = x;
  }
  for (std::size_t j = 0; j < blocks; ++j) out[j] += plan.scale[j] * z[j];
  for (std::size_t s = 0; s < n; ++s) {
    double x = xhat_[s];
    for (std::size_t t = 0; t <= s; ++t)
      x += plan.chol[s * n + t] * z[blocks + t];
    state_[s] = x;
  }
  sum_states();
}

double FilterBankFlicker::analytic_psd(double f) const {
  PTRNG_EXPECTS(f > 0.0 && f <= fs_ / 2.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < rho_.size(); ++k)
    sum += sigma_[k] * sigma_[k] * stage_psd(rho_[k], fs_, f);
  return sum;
}

double FilterBankFlicker::target_psd(double f) const {
  PTRNG_EXPECTS(f > 0.0);
  return amplitude_ / f;
}

FilterBankFlicker::Config flicker_band_config(double amplitude, double fs,
                                              double f_min, std::uint64_t seed,
                                              unsigned stages_per_decade,
                                              SamplerPolicy sampler) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = amplitude;
  cfg.fs = fs;
  cfg.f_min = f_min;
  cfg.f_max = fs / 4.0;
  cfg.stages_per_decade = stages_per_decade;
  cfg.seed = seed;
  cfg.sampler = sampler;
  return cfg;
}

}  // namespace ptrng::noise
