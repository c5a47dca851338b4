// Flicker (1/f) noise via a bank of octave-spaced first-order AR(1)
// (discrete Ornstein–Uhlenbeck) stages — the production generator used by
// the oscillator simulator: O(stages) per sample, stationary from sample 0,
// analytically known PSD (sum of Lorentzians).
//
// Equal-variance stages with log-spaced corner frequencies superpose to a
// PSD ~ c/f between f_min and f_max; the constructor calibrates the global
// gain against the requested two-sided amplitude A (target S(f) = A/f) by a
// log-grid least-squares fit of the *analytic* stage sum.
//
// State is laid out struct-of-arrays (rho / innovation gain / state per
// stage) and every stage owns a decorrelated RNG stream
// (chunk_seed(seed, stage)), so the batched fill() path can draw each
// stage's Gaussians in one block per stage while staying bit-identical to
// sample-by-sample next() calls (docs/ARCHITECTURE.md §5). The per-sample
// paths (next(), advance_sum()) read their Gaussians from a draw-ahead
// block that holds the next few dozen draws of every stage, filled in
// 4-stage SIMD packs; since every call consumes exactly one draw from
// each stage, one lockstep cursor serves all stages. They compute in
// the same 4-stage packs and fold the lanes in stage order, so they
// are bit-identical to a scalar stage loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "noise/sampler_policy.hpp"

namespace ptrng::noise {

/// Streaming 1/f noise with two-sided PSD ~ amplitude/f over
/// [f_min, f_max].
class FilterBankFlicker final {
 public:
  struct Config {
    double amplitude = 1.0;      ///< target two-sided PSD: amplitude / f
    double fs = 1.0;             ///< sample rate [Hz]
    double f_min = 1e-6;         ///< lower band edge [Hz] (>= fs/n_samples)
    double f_max = 0.0;          ///< upper band edge; 0 -> fs/4
    unsigned stages_per_decade = 3;
    std::uint64_t seed = 0x1f1cce5;
    /// Sampler policy for every per-stage stream (§5 "Sampler policy");
    /// Polar reproduces the pre-PR-5 realized streams bit-for-bit.
    SamplerPolicy sampler{};
  };

  explicit FilterBankFlicker(const Config& config);

  /// Next sample of the process.
  double next();

  /// Batched fast path: bit-identical to out.size() next() calls on the
  /// same stream for ANY PTRNG_THREADS (per-stage RNG streams make the
  /// draw order within each stage independent of the batching). One
  /// Gaussian block per stage per internal block instead of one draw per
  /// stage per sample; the independent per-stage recurrences fan out one
  /// stage per task on the common pool and the stage contributions fold
  /// in stage order — the exact accumulation order of next().
  void fill(std::span<double> out);

  /// Sample rate the PSD is defined against [Hz].
  [[nodiscard]] double sample_rate() const { return fs_; }

  /// Exact block advance: draws the SUM of the next k samples from its
  /// true joint distribution with the end state and moves the generator
  /// k steps forward — O(stages), independent of k. Statistically
  /// indistinguishable from summing k next() calls (each AR(1) stage's
  /// (sum, end-state) pair is jointly Gaussian with closed-form moments;
  /// the stages' residuals around their regressions on the end-state
  /// shocks are pooled into one draw). For k >= 2 it consumes exactly one
  /// draw per stage plus one from the bank's residual stream, so it
  /// composes deterministically with next()/fill() on the same generator.
  [[nodiscard]] double advance_sum(std::size_t k);

  /// Longest batch advance_sums() draws in one call.
  static constexpr std::size_t kMaxSumBlocks = 64;

  /// Batched exact block advance: writes the sums of out.size()
  /// (1..kMaxSumBlocks) consecutive k-sample blocks (k >= 2: a
  /// one-sample block's sum is its end states' sum, which would leave
  /// the end state's law given the sums singular), drawn from their
  /// exact joint law given the current stage states, and moves the
  /// generator out.size() * k steps forward. It runs the bank's
  /// block-rate state-space model in innovations (Kalman) form: one draw
  /// per block from the bank's residual stream, then one per stage to
  /// realize the end state from its law given the drawn sums, so it
  /// composes with next(), advance_sum() and fill() like any other call.
  /// The gains, innovation scales and end-state Cholesky factor depend
  /// only on (k, out.size()) and are memoized.
  void advance_sums(std::size_t k, std::span<double> out);

  /// Stationary variance of the sum of k consecutive samples — the
  /// flicker part of Eq. 11's sigma^2_N at N = k: per stage, the
  /// variance of the conditional mean given the current state plus the
  /// conditional variance advance_sum(k) draws around it. O(stages) and
  /// memoized with advance_sum's terms; draws nothing.
  [[nodiscard]] double sum_variance(std::size_t k);

  /// The most recent sample: the sum of the stage states, in next()'s
  /// accumulation order. After next() it is the value next() returned;
  /// after advance_sum(k) it is the last of the k samples summed. Draws
  /// nothing; O(1), since every call that moves the states keeps the sum.
  [[nodiscard]] double last_sample() const noexcept { return state_sum_; }

  /// Exact two-sided PSD of this generator (sum of discrete Lorentzians) at
  /// frequency f — what Welch estimates should converge to.
  [[nodiscard]] double analytic_psd(double f) const;

  /// Target two-sided PSD amplitude/f it approximates in band.
  [[nodiscard]] double target_psd(double f) const;

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return rho_.size();
  }
  [[nodiscard]] double f_min() const noexcept { return f_min_; }
  [[nodiscard]] double f_max() const noexcept { return f_max_; }

 private:
  double fs_;
  double amplitude_;
  double f_min_;
  double f_max_;
  // Struct-of-arrays per-stage state; all vectors share stage indexing.
  std::vector<double> rho_;    ///< per-stage AR(1) pole
  std::vector<double> sigma_;  ///< per-stage stationary stddev (calibrated)
  std::vector<double> drive_;  ///< innovation stddev sigma*sqrt(1-rho^2)
  // Precomputed geometric terms shared by advance_sum (k-independent).
  std::vector<double> inv_one_m_rho_;   ///< 1/(1-rho)
  std::vector<double> inv_one_m_rho2_;  ///< 1/(1-rho^2)
  std::vector<double> state_;
  /// Sum of state_ in stage order (from 0.0, as next() sums it): kept by
  /// the constructor, next(), fill() and advance_sum() for last_sample().
  double state_sum_ = 0.0;
  void sum_states() noexcept;  ///< recomputes state_sum_
  /// One decorrelated stream per stage so batched per-stage draws consume
  /// each stream in the same order as interleaved per-sample draws.
  std::vector<GaussianSampler> gauss_;
  /// advance_sum's pooled residual stream, chunk_seed(seed, stages).
  GaussianSampler resid_gauss_;
  std::vector<double> scratch_;  ///< fill() per-stage staging (stages x block)

  /// Draw-ahead block: the next kAhead Gaussians of every stage, drawn
  /// ahead of use so next() and advance_sum() pay the batched SIMD draw
  /// cost instead of one scalar draw per stage per call. Stages in full
  /// 4-stage packs sit interleaved as GaussianSampler::fill_packs writes
  /// them (pack p at [4p*kAhead, 4(p+1)*kAhead), draw i of lane l at
  /// 4i + l); each tail stage s owns [s*kAhead, (s+1)*kAhead). Allocated
  /// on first use, so fill()-only generators never pay for it.
  static constexpr std::size_t kAhead = 64;
  std::vector<double> ahead_;
  /// Lockstep cursor: next unread draw index; kAhead = drained.
  std::size_t ahead_pos_ = kAhead;
  std::size_t packed_stages_ = 0;  ///< stages in full 4-stage packs
  /// Index of stage s's draw i inside ahead_.
  [[nodiscard]] std::size_t ahead_index(std::size_t s,
                                        std::size_t i) const noexcept {
    return s < packed_stages_
               ? (s & ~std::size_t{3}) * kAhead + 4 * i + (s & 3)
               : s * kAhead + i;
  }
  /// Returns the cursor of the next buffered draw of every stage and
  /// moves past it, refilling the block first when it is drained.
  std::size_t take_ahead();

  /// advance_sum's moment terms for one block length k. The per-stage
  /// terms are a struct of arrays in stage order, so the pack kernel
  /// loads four stages per vector.
  struct AdvanceCacheEntry {
    std::size_t k = 0;  ///< block length; 0 marks an empty slot
    std::vector<double> q;          ///< rho^k
    std::vector<double> sd_x;       ///< stddev of the end state (given x_0)
    std::vector<double> mean_coef;  ///< E[S|x_0] = mean_coef * x_0
    std::vector<double> slope;  ///< regression of S on the end-state shock
    /// Pooled stddev of the stage sums around their regressions:
    /// sqrt(sum over stages of Var(S_s | x_0, end-state shock)).
    double resid_sd = 0.0;
    double sum_variance = 0.0;  ///< sum_variance(k)
  };
  /// Small round-robin memo keyed on k: the counter's window loop
  /// revisits the same few block lengths (n_cycles plus jump sizes that
  /// jitter by +-1 period) millions of times, and recomputing cost
  /// ~stage_count std::pow calls per advance. 8 slots cover that
  /// working set with room for the jitter.
  const AdvanceCacheEntry& advance_terms(std::size_t k);
  std::array<AdvanceCacheEntry, 8> advance_cache_{};
  std::size_t advance_cache_next_ = 0;

  /// advance_sums' filter for `blocks` blocks of length k, run from a
  /// known state (P_0 = 0). Block j's sum is c.xhat + scale[j] * z_j and
  /// the state estimate moves to q o xhat + gain_j * z_j, z_j the block's
  /// standard-normal innovation; the end state is xhat + chol * z, z one
  /// draw per stage.
  struct SumsPlan {
    std::size_t k = 0;  ///< block length; 0 marks an empty slot
    std::size_t blocks = 0;
    std::vector<double> scale;  ///< innovation stddev per block
    std::vector<double> gain;   ///< blocks x stages, row j = block j
    std::vector<double> chol;   ///< stages x stages, lower, row-major
  };
  /// Small round-robin memo keyed on (k, blocks): a sampling clock asks
  /// for one pair for its whole life.
  const SumsPlan& sums_plan(std::size_t k, std::size_t blocks);
  std::array<SumsPlan, 4> sums_cache_{};
  std::size_t sums_cache_next_ = 0;
  std::vector<double> xhat_;  ///< advance_sums' state estimate
  /// advance_sums' draws: one per block, then one per stage.
  std::vector<double> innovation_;
};

/// Shared Config factory for the oscillator-layer flicker banks: a 1/f
/// band from `f_min` up to the conventional fs/4 upper edge at sample
/// rate `fs`. RingOscillator and GateChainOscillator both build their
/// banks through this helper so the band conventions cannot drift
/// between them.
[[nodiscard]] FilterBankFlicker::Config flicker_band_config(
    double amplitude, double fs, double f_min, std::uint64_t seed,
    unsigned stages_per_decade = 3, SamplerPolicy sampler = {});

}  // namespace ptrng::noise
