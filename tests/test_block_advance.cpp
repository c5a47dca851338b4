// Statistical-equivalence tests for the exact block-advance fast paths:
// FilterBankFlicker::advance_sum, RingOscillator::advance_periods and
// GateChainOscillator::advance_sum must be indistinguishable (in
// distribution) from stepping sample by sample, and both oscillators'
// jitter-sized advance_to_block jumps must never land past their
// targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attacks/injection.hpp"
#include "common/contracts.hpp"
#include "model/fleet_campaign.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/gate_chain.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "stat_tolerance.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "transistor/technology.hpp"
#include "trng/cell_array.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"

namespace {

using namespace ptrng;

noise::FilterBankFlicker::Config flicker_config(std::uint64_t seed) {
  noise::FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = seed;
  return cfg;
}

/// A flicker bank with the moments of the bank that a RingOscillator
/// built from `cfg` owns (same band and stages; the moments do not
/// depend on the seed).
noise::FilterBankFlicker ring_bank(const oscillator::RingOscillatorConfig& cfg) {
  const double f0 = cfg.f0;
  return noise::FilterBankFlicker(noise::flicker_band_config(
      cfg.b_fl / (f0 * f0 * f0 * f0), f0, f0 * cfg.flicker_floor_ratio, 1,
      cfg.flicker_stages_per_decade));
}

TEST(BlockAdvance, FlickerSumVarianceMatchesStepping) {
  // Var over many disjoint k-blocks: stepping vs block path.
  const std::size_t k = 64;
  const std::size_t trials = 4000;
  noise::FilterBankFlicker stepper(flicker_config(1));
  noise::FilterBankFlicker jumper(flicker_config(2));
  stats::RunningStats step_stats, jump_stats;
  for (std::size_t t = 0; t < trials; ++t) {
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += stepper.next();
    step_stats.add(sum);
    jump_stats.add(jumper.advance_sum(k));
  }
  EXPECT_NEAR(jump_stats.variance() / step_stats.variance(), 1.0, 0.15);
  // Consecutive k-sums of 1/f noise stay correlated out to the f_min
  // corner (1/f_min = 1e4 samples ~ 156 blocks of k = 64), so the iid
  // sd/sqrt(trials) band would be ~12x too tight (stat_tolerance.hpp
  // header rule): use the effective trial count trials/156 with z = 5.
  const double eff_trials = double(trials) / (1.0 / 1e-4 / double(k));
  EXPECT_NEAR(jump_stats.mean(), 0.0,
              5.0 * step_stats.stddev() / std::sqrt(eff_trials));
}

TEST(BlockAdvance, FlickerBlockPreservesLongRangeCorrelation) {
  // Consecutive k-sums of 1/f noise are positively correlated; the block
  // path must reproduce that correlation, not just the marginal variance.
  const std::size_t k = 128;
  const std::size_t pairs = 6000;
  noise::FilterBankFlicker stepper(flicker_config(3));
  noise::FilterBankFlicker jumper(flicker_config(4));
  std::vector<double> s1, s2, j1, j2;
  for (std::size_t t = 0; t < pairs; ++t) {
    double a = 0.0, b = 0.0;
    for (std::size_t i = 0; i < k; ++i) a += stepper.next();
    for (std::size_t i = 0; i < k; ++i) b += stepper.next();
    s1.push_back(a);
    s2.push_back(b);
    j1.push_back(jumper.advance_sum(k));
    j2.push_back(jumper.advance_sum(k));
  }
  const double corr_step = stats::correlation(s1, s2);
  const double corr_jump = stats::correlation(j1, j2);
  EXPECT_GT(corr_step, 0.2);  // 1/f: adjacent sums clearly correlated
  EXPECT_NEAR(corr_jump, corr_step, 0.12);
}

TEST(BlockAdvance, MixedBlockAndStepSequenceIsStationary) {
  // Interleave next() and advance_sum(): the per-sample variance after a
  // jump must match the stationary variance (state update is exact).
  noise::FilterBankFlicker gen(flicker_config(5));
  stats::RunningStats after_jump, baseline;
  for (int t = 0; t < 20000; ++t) {
    baseline.add(gen.next());
    (void)gen.advance_sum(32);
    after_jump.add(gen.next());
  }
  EXPECT_NEAR(after_jump.variance() / baseline.variance(), 1.0, 0.1);
}

TEST(BlockAdvance, OscillatorElapsedTimeMomentsMatch) {
  // Thermal-only oscillator: elapsed time over k periods is
  // N(k*t_nom, k*sigma^2) on both paths.
  oscillator::RingOscillatorConfig cfg = oscillator::paper_single_config(6);
  cfg.b_fl = 0.0;
  const std::size_t k = 1000;
  const std::size_t trials = 3000;

  oscillator::RingOscillator stepper(cfg);
  cfg.seed ^= 0x1234;
  oscillator::RingOscillator jumper(cfg);
  stats::RunningStats step_stats, jump_stats;
  for (std::size_t t = 0; t < trials; ++t) {
    const double t0 = stepper.edge_time();
    for (std::size_t i = 0; i < k; ++i) stepper.next_period();
    step_stats.add(stepper.edge_time() - t0);

    const double t1 = jumper.edge_time();
    jumper.advance_periods(k);
    jump_stats.add(jumper.edge_time() - t1);
  }
  // CI-width band for the ratio of two independent sample means of
  // N(k*t_nom, k*sigma_th^2) over `trials` trials each:
  // sd(mean)/mean = sigma_th/(t_nom*sqrt(k*trials)) per stream, sqrt(2)
  // for the difference of two, z = 5 (stat_tolerance conventions).
  const double mean_ratio_tol =
      5.0 * std::sqrt(2.0) * stepper.sigma_thermal() /
      (stepper.nominal_period() *
       std::sqrt(double(k) * double(trials)));
  EXPECT_NEAR(jump_stats.mean() / step_stats.mean(), 1.0, mean_ratio_tol);
  EXPECT_NEAR(jump_stats.variance() / step_stats.variance(), 1.0, 0.15);
  EXPECT_EQ(jumper.cycle_count(), stepper.cycle_count());
}

TEST(BlockAdvance, OscillatorSigma2NUnaffectedByJumpSize) {
  // sigma^2_N built from 256-period block sums must match theory whether
  // the blocks are made of 4x64-jumps or one 256-jump.
  auto run = [](std::size_t jump, std::uint64_t seed) {
    oscillator::RingOscillatorConfig cfg =
        oscillator::paper_single_config(seed);
    oscillator::RingOscillator osc(cfg);
    std::vector<double> sums;
    for (int t = 0; t < 4000; ++t) {
      const double t0 = osc.edge_time();
      for (std::size_t j = 0; j < 256 / jump; ++j) osc.advance_periods(jump);
      sums.push_back(osc.edge_time() - t0);
    }
    return stats::variance(sums);
  };
  const double v64 = run(64, 7);
  const double v256 = run(256, 8);
  EXPECT_NEAR(v64 / v256, 1.0, 0.25);
}

TEST(BlockAdvance, ModulatedAdvanceTracksStepping) {
  // With a slow deterministic modulation, the closed-form jump must land
  // on the same mean elapsed time as stepping.
  auto make = [](std::uint64_t seed) {
    oscillator::RingOscillatorConfig cfg =
        oscillator::paper_single_config(seed);
    cfg.b_fl = 0.0;
    cfg.b_th = 1e-6;  // nearly deterministic: isolate the modulation
    return oscillator::RingOscillator(cfg);
  };
  auto stepper = make(9);
  auto jumper = make(10);
  const oscillator::SinusoidalModulation mod{1e-3, 50e3};
  stepper.set_modulation(mod);
  jumper.set_modulation(mod);
  for (int i = 0; i < 20000; ++i) stepper.next_period();
  jumper.advance_periods(20000);
  EXPECT_NEAR(jumper.edge_time() / stepper.edge_time(), 1.0, 1e-6);
}

TEST(BlockAdvance, ModulatedNoiseFreeJumpsLandOnTheSteppedEdges) {
  // Without jitter every edge is deterministic, so each edge a jump
  // realizes must be its stepped twin's edge with the same index, to
  // well under the jitter of one period, across three beat cycles and
  // at a depth ten times the EM attack's.
  constexpr double kBeat = 100e3;
  for (const double depth : {3e-3, 3e-2}) {
    SCOPED_TRACE(depth);
    auto cfg = oscillator::paper_single_config(0x2e20);
    cfg.b_th = 0.0;
    cfg.b_fl = 0.0;
    const oscillator::SinusoidalModulation mod{depth, kBeat};
    oscillator::RingOscillator stepper(cfg), advancer(cfg), bracketer(cfg);
    for (auto* osc : {&stepper, &advancer, &bracketer})
      osc->set_modulation(mod);
    const double period = stepper.nominal_period();
    const auto cycles = static_cast<std::size_t>(3.0 / (kBeat * period));
    std::vector<double> edges{stepper.edge_time()};
    while (edges.size() < cycles + 400) {
      stepper.next_period();
      edges.push_back(stepper.edge_time());
    }
    double worst = 0.0;
    auto check = [&](double edge, std::uint64_t index) {
      ASSERT_LT(index, edges.size());
      worst = std::max(worst, std::abs(edge - edges[index]) / period);
    };
    while (advancer.cycle_count() < cycles) {
      advancer.advance_periods(200);
      check(advancer.edge_time(), advancer.cycle_count());
    }
    bracketer.next_period();
    oscillator::EdgeBracket bracket{0.0, bracketer.edge_time()};
    for (std::size_t i = 0; bracketer.cycle_count() < cycles; ++i) {
      const double t = bracket.next + (200.0 + 0.37 * double(i % 3)) * period;
      bracket = bracketer.advance_to_block(t, bracket);
      check(bracket.prev, bracketer.cycle_count() - 1);
      check(bracket.next, bracketer.cycle_count());
    }
    EXPECT_LT(worst, 1e-4);
  }
}

TEST(BlockAdvance, ModulatedElapsedTimeLawMatchesStepping) {
  // Paper-noise rings at a deep beat: over independent ring pairs, the
  // k-period elapsed time of the jump must follow the stepped law in
  // mean and variance. Each block ends where the beat slows the ring
  // most (m = -d). A stepped jitter shifts every later edge, so the
  // block's jitter lands scaled by 1 - m at its end: the variance grows
  // by about (1 + d)^2 = 1.44 there, far outside the band, so a jump
  // that left the jitter unscaled would fail.
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kBlock = 200;
  const oscillator::SinusoidalModulation mod{0.2, 50e3};
  auto make = [&mod](std::uint64_t seed, double noise) {
    auto cfg = oscillator::paper_single_config(seed);
    cfg.b_th *= noise;
    cfg.b_fl *= noise;
    oscillator::RingOscillator osc(cfg);
    osc.set_modulation(mod);
    return osc;
  };
  // Periods until the trough (sin = -1 at 3/4 of the beat), counted on
  // a noise-free twin.
  auto twin = make(0, 0.0);
  while (twin.edge_time() < 0.75 / mod.f_beat) twin.next_period();
  const std::uint64_t lead = twin.cycle_count() - kBlock;
  stats::RunningStats stepped, jumped;
  for (std::size_t i = 0; i < kTrials; ++i) {
    auto stepper = make(0x7a40'0000 + 2 * i, 1.0);
    auto jumper = make(0x7a40'0001 + 2 * i, 1.0);
    for (std::uint64_t p = 0; p < lead; ++p) stepper.next_period();
    jumper.advance_periods(lead);
    const double t0 = stepper.edge_time();
    for (std::uint64_t p = 0; p < kBlock; ++p) stepper.next_period();
    stepped.add(stepper.edge_time() - t0);
    const double t1 = jumper.edge_time();
    jumper.advance_periods(kBlock);
    jumped.add(jumper.edge_time() - t1);
  }
  EXPECT_NEAR(jumped.mean() / stepped.mean(), 1.0,
              5.0 * std::sqrt(2.0 * stepped.variance() / double(kTrials)) /
                  stepped.mean());
  EXPECT_NEAR(jumped.variance() / stepped.variance(), 1.0,
              ptrng::testing::variance_ratio_tol(kTrials));
  // The band above can see the scale: the stepped variance sits far
  // above the unmodulated one ((1 + d)^2 from the block's own jitter,
  // more from the earlier edges' jitter, which the beat's slope turns
  // into elapsed time).
  auto bank = ring_bank(oscillator::paper_single_config());
  const double sigma = make(0, 1.0).sigma_thermal();
  const double unmodulated =
      double(kBlock) * sigma * sigma + bank.sum_variance(kBlock);
  EXPECT_GT(stepped.variance() / unmodulated,
            1.0 + ptrng::testing::variance_ratio_tol(kTrials));
}

TEST(BlockAdvance, SumVarianceMatchesEnsembleOfBlockSums) {
  // sum_variance(k) is the stationary variance of a k-sample sum: over
  // independent banks (one block sum each, so the samples are iid) the
  // sample variance must match it within the chi-square band.
  constexpr std::size_t kBanks = 400;
  noise::FilterBankFlicker reference(flicker_config(1));
  for (const std::size_t k : {std::size_t{1}, std::size_t{200}}) {
    stats::RunningStats rs;
    for (std::size_t b = 0; b < kBanks; ++b) {
      noise::FilterBankFlicker fb(flicker_config(0x5a11'0000 + 1000 * k + b));
      rs.add(fb.advance_sum(k));
    }
    EXPECT_NEAR(rs.variance() / reference.sum_variance(k), 1.0,
                ptrng::testing::variance_ratio_tol(kBanks))
        << "k = " << k;
  }
}

TEST(BlockAdvance, FlickerAdvanceSumJointLawMatchesStepping) {
  // advance_sum(k) draws the block sum S jointly with the end state, so
  // the block's last sample (last_sample()) and the sample after it
  // must follow the stepped joint law too, not just S's marginal. Over
  // independent paper-shaped banks (21 stages; one block each, so the
  // triples are iid) both the jumped and the stepped ensemble must
  // match the stationary moments, which follow from V = sum_variance
  // by stationarity (S_k = S_{k-1} + x_k, S_{k+1} = S_k + x_{k+1}):
  //   Var(S) = V(k),  Var(last) = V(1),
  //   Cov(S, last) = (V(k) - V(k-1) + V(1)) / 2,
  //   Cov(S, following) = (V(k+1) - V(k) - V(1)) / 2.
  // S and last are over 0.6 correlated at these k, so Var(S) alone
  // hides the part of S that last does not explain; the residual
  // S - Cov(S, last) / V(1) * last carries it, with variance
  // V(k) - Cov(S, last)^2 / V(1).
  constexpr std::size_t kBanks = 2000;
  auto bank_config = [](std::uint64_t seed) {
    return noise::flicker_band_config(1e-3, 1.0, 1e-7, seed);
  };
  noise::FilterBankFlicker reference(bank_config(1));
  ASSERT_EQ(reference.stage_count(), 21u);
  using ptrng::testing::covariance_tol;
  using ptrng::testing::variance_ratio_tol;
  for (const std::size_t k : {std::size_t{2}, std::size_t{64},
                              std::size_t{200}, std::size_t{10000}}) {
    const double v1 = reference.sum_variance(1);
    const double vk = reference.sum_variance(k);
    const double cov_last = 0.5 * (vk - reference.sum_variance(k - 1) + v1);
    const double cov_next = 0.5 * (reference.sum_variance(k + 1) - vk - v1);
    const double beta = cov_last / v1;
    const double v_resid = vk - beta * cov_last;
    for (const bool jump : {false, true}) {
      std::vector<double> sums, lasts, nexts;
      std::size_t last_mismatches = 0;
      for (std::size_t b = 0; b < kBanks; ++b) {
        noise::FilterBankFlicker fb(
            bank_config(0x1a57'0000 + 2 * (kBanks * k + b) + (jump ? 1 : 0)));
        double sum = 0.0;
        if (jump) {
          sum = fb.advance_sum(k);
        } else {
          double x = 0.0;
          for (std::size_t i = 0; i < k; ++i) sum += (x = fb.next());
          if (fb.last_sample() != x) ++last_mismatches;
        }
        sums.push_back(sum);
        lasts.push_back(fb.last_sample());
        nexts.push_back(fb.next());
      }
      const std::string where =
          std::string(jump ? "jumped" : "stepped") + ", k = " +
          std::to_string(k);
      EXPECT_EQ(last_mismatches, 0u) << where;
      EXPECT_NEAR(stats::variance(sums) / vk, 1.0, variance_ratio_tol(kBanks))
          << where;
      EXPECT_NEAR(stats::variance(lasts) / v1, 1.0,
                  variance_ratio_tol(kBanks))
          << where;
      EXPECT_NEAR(stats::covariance(sums, lasts), cov_last,
                  covariance_tol(kBanks, vk, v1, cov_last))
          << where;
      EXPECT_NEAR(stats::covariance(sums, nexts), cov_next,
                  covariance_tol(kBanks, vk, v1, cov_next))
          << where;
      std::vector<double> resid(kBanks);
      for (std::size_t b = 0; b < kBanks; ++b)
        resid[b] = sums[b] - beta * lasts[b];
      EXPECT_NEAR(stats::variance(resid) / v_resid, 1.0,
                  variance_ratio_tol(kBanks))
          << where;
    }
  }
}

TEST(BlockAdvance, FlickerAdvanceSumsJointLawMatchesStepping) {
  // advance_sums(k, 64) draws 64 block sums at once from their joint law
  // given the stage states (innovations form of the block-rate model),
  // then realizes the end state from its law given those sums. Over
  // independent paper-shaped banks, two batches of 64 block sums each
  // (the batch path) and 128 advance_sum(k) calls (the stepped path)
  // must both match the stationary moments of block sums, which follow
  // from V = sum_variance by stationarity: Var(S_j) = V(k), and the
  // covariance of blocks L apart, C(L) = (V((L+1)k) - 2 V(Lk) +
  // V((L-1)k)) / 2. Checked: every block's variance, lag 1 inside each
  // batch (first, middle and last pair), lag 63 inside each batch, the
  // pair across the batch boundary, and the end state through
  // last_sample(): Var = V(1), and its covariance with the last block
  // (V(k) - V(k-1) + V(1)) / 2. Skipping the end-state realization
  // (keeping the filter's estimate) leaves last_sample() short of V(1).
  constexpr std::size_t kBanks = 2000;
  constexpr std::size_t kBatch = noise::FilterBankFlicker::kMaxSumBlocks;
  constexpr std::size_t kBlocks = 2 * kBatch;
  auto bank_config = [](std::uint64_t seed) {
    return noise::flicker_band_config(1e-3, 1.0, 1e-7, seed);
  };
  noise::FilterBankFlicker reference(bank_config(1));
  ASSERT_EQ(reference.stage_count(), 21u);
  using ptrng::testing::covariance_tol;
  using ptrng::testing::variance_ratio_tol;
  for (const std::size_t k :
       {std::size_t{8}, std::size_t{200}, std::size_t{100000}}) {
    const auto v = [&](std::size_t m) {
      return m == 0 ? 0.0 : reference.sum_variance(m);
    };
    const double vk = v(k);
    const double v1 = v(1);
    const auto lag_cov = [&](std::size_t lag) {
      return 0.5 * (v((lag + 1) * k) - 2.0 * v(lag * k) + v((lag - 1) * k));
    };
    const double cov_last = 0.5 * (vk - v(k - 1) + v1);
    for (const bool batch : {false, true}) {
      // sums[j][b]: block j of bank b.
      std::vector<std::vector<double>> sums(kBlocks,
                                            std::vector<double>(kBanks));
      std::vector<double> lasts(kBanks);
      for (std::size_t b = 0; b < kBanks; ++b) {
        noise::FilterBankFlicker fb(bank_config(
            0x5b10'0000 + 2 * (kBanks * (k % 1009) + b) + (batch ? 1 : 0)));
        std::array<double, kBlocks> y{};
        if (batch) {
          fb.advance_sums(k, {y.data(), kBatch});
          fb.advance_sums(k, {y.data() + kBatch, kBatch});
        } else {
          for (auto& yj : y) yj = fb.advance_sum(k);
        }
        for (std::size_t j = 0; j < kBlocks; ++j) sums[j][b] = y[j];
        lasts[b] = fb.last_sample();
      }
      const std::string where = std::string(batch ? "batched" : "stepped") +
                                ", k = " + std::to_string(k);
      for (std::size_t j = 0; j < kBlocks; ++j)
        EXPECT_NEAR(stats::variance(sums[j]) / vk, 1.0,
                    variance_ratio_tol(kBanks))
            << where << ", block " << j;
      const auto expect_cov = [&](std::size_t a, std::size_t lag) {
        const double cov = lag_cov(lag);
        EXPECT_NEAR(stats::covariance(sums[a], sums[a + lag]), cov,
                    covariance_tol(kBanks, vk, vk, cov))
            << where << ", blocks " << a << " and " << a + lag;
      };
      for (const std::size_t first : {std::size_t{0}, kBatch}) {
        expect_cov(first, 1);
        expect_cov(first + kBatch / 2, 1);
        expect_cov(first + kBatch - 2, 1);
        expect_cov(first, kBatch - 1);
      }
      expect_cov(kBatch - 1, 1);  // across the batch boundary
      EXPECT_NEAR(stats::variance(lasts) / v1, 1.0,
                  variance_ratio_tol(kBanks))
          << where;
      EXPECT_NEAR(stats::covariance(sums[kBlocks - 1], lasts), cov_last,
                  covariance_tol(kBanks, vk, v1, cov_last))
          << where;
    }
  }
}

struct LandingCounts {
  std::size_t configs = 0;
  std::uint64_t jumps = 0;
  std::uint64_t overshoots = 0;
  std::uint64_t bad_brackets = 0;
};

/// Drives every eRO corner of the campaign grid whose attack is (or, with
/// `attacked`, is not) "none" like an eRO, with the rings built as
/// model::make_device builds them (attack transform, then each ring's
/// own beat when the attack modulates): a sampling ring advanced by the
/// divider sets each target. The jump realizes the edge it lands on and
/// the one after it, so a jump that landed past its target would return
/// a bracket whose prev lies after the target; a bracket that is not two
/// consecutive edges would span more than one period.
LandingCounts drive_ero_corners(bool attacked, std::size_t calls_per_case,
                                std::uint64_t seed0) {
  model::CampaignConfig campaign;
  const std::uint32_t dividers[] = {8, 24, 64, 200, 640, 2000};
  LandingCounts counts;
  for (const auto& spec : model::expand_grid(campaign)) {
    if (spec.generator != "ero" || (spec.attack != "none") != attacked)
      continue;
    ++counts.configs;
    const auto attack = attacks::attack_by_name(spec.attack);
    for (const std::uint32_t divider : dividers) {
      const std::uint64_t seed = seed0 + 16 * counts.configs + divider;
      auto sampled_cfg = model::derated_ring(spec, seed, +1.5e-3);
      auto sampling_cfg =
          model::derated_ring(spec, seed ^ 0xabcdef9876ULL, -1.5e-3);
      if (attack) {
        sampled_cfg = attack->apply(sampled_cfg);
        sampling_cfg = attack->apply(sampling_cfg);
      }
      oscillator::RingOscillator sampled(sampled_cfg);
      oscillator::RingOscillator sampling(sampling_cfg);
      if (attack && attack->modulation_depth > 0.0) {
        sampled.set_modulation(attack->modulation_for(sampled_cfg));
        sampling.set_modulation(attack->modulation_for(sampling_cfg));
      }
      sampled.next_period();
      oscillator::EdgeBracket bracket{0.0, sampled.edge_time()};
      const double period = sampled.nominal_period();
      for (std::size_t i = 0; i < calls_per_case; ++i) {
        sampling.advance_periods(divider);
        const double t = sampling.edge_time();
        const std::uint64_t before = sampled.cycle_count();
        bracket = sampled.advance_to_block(t, bracket);
        if (sampled.cycle_count() - before >= 2) ++counts.jumps;
        if (!(bracket.prev <= t && t < bracket.next) ||
            bracket.next != sampled.edge_time())
          ++counts.bad_brackets;
        if (bracket.next - bracket.prev > 1.5 * period) ++counts.overshoots;
      }
    }
  }
  return counts;
}

TEST(AdvanceToBlock, NoJumpLandsPastItsTargetAtAnyUnattackedCorner) {
  // Every unattacked ring-family corner of the campaign grid (all nodes,
  // corner deratings, flicker x0/1/4).
  const auto counts = drive_ero_corners(false, 4700, 0x0c05'0000);
  EXPECT_EQ(counts.configs, 36u);
  EXPECT_GE(counts.jumps, 1'000'000u);
  EXPECT_EQ(counts.overshoots, 0u);
  EXPECT_EQ(counts.bad_brackets, 0u);
}

TEST(AdvanceToBlock, NoJumpLandsPastItsTargetAtAnyAttackedCorner) {
  // The same over the 108 attacked corners: em_weak and em_strong rings
  // jump across their sinusoidal beat, lock rings are unmodulated.
  const auto counts = drive_ero_corners(true, 1600, 0x0c06'0000);
  EXPECT_EQ(counts.configs, 108u);
  EXPECT_GE(counts.jumps, 1'000'000u);
  EXPECT_EQ(counts.overshoots, 0u);
  EXPECT_EQ(counts.bad_brackets, 0u);
}

TEST(AdvanceToBlock, RejectsABracketThatIsNotTheLatestEdge) {
  auto osc = oscillator::RingOscillator(oscillator::paper_single_config(3));
  osc.next_period();
  const oscillator::EdgeBracket stale{0.0, osc.edge_time()};
  osc.next_period();
  EXPECT_THROW((void)osc.advance_to_block(osc.edge_time() + 1e-6, stale),
               ContractViolation);
}

TEST(AdvanceToBlock, EroStatisticsMatchTheSteppedApproach) {
  // The jitter-sized jump realizes different streams than the former
  // approach (jump 90% of the gap while >= 16 periods remain, then
  // step), but the same process. Over 8 seeded paper eRO devices at
  // K = 200, the mean bit probability and mean Markov entropy rate must
  // sit inside the two-sample band around the former approach's values
  // (per-seed mean and sample stddev over the same seeds and lengths).
  constexpr std::size_t kSeeds = 8;
  constexpr std::size_t kBits = 20000;
  constexpr double kRefP1 = 0.499656250, kRefP1Sd = 0.002073030;
  constexpr double kRefMarkov = 0.716007177, kRefMarkovSd = 0.015464636;
  stats::RunningStats p1;
  stats::RunningStats markov;
  for (std::size_t s = 1; s <= kSeeds; ++s) {
    auto trng = trng::paper_trng(200, 0x57a7'0000 + s);
    std::vector<std::uint8_t> bits(kBits);
    trng.generate_into(bits);
    double ones = 0.0;
    for (const auto b : bits) ones += b;
    p1.add(ones / static_cast<double>(kBits));
    markov.add(trng::markov_entropy_rate(bits));
  }
  EXPECT_NEAR(p1.mean(), kRefP1,
              ptrng::testing::mean_difference_tol(kRefP1Sd, kSeeds, p1.stddev(),
                                           kSeeds));
  EXPECT_NEAR(markov.mean(), kRefMarkov,
              ptrng::testing::mean_difference_tol(kRefMarkovSd, kSeeds,
                                           markov.stddev(), kSeeds));
}

/// One advance_to_block bracket per fresh oscillator (so the samples
/// are iid), aimed 200-201 nominal periods past its first edge at
/// phases spread over the period: the revealed period next - prev and
/// the stepped period after it must follow the law of two consecutive
/// stepped periods however the jump realizes them — mean T, variance
/// sigma_th^2 + V(1) and lag-1 covariance (V(2) - 2 V(1)) / 2, with V
/// the ring bank's sum_variance (thermal draws are independent). The
/// period covering a fixed instant is length-biased, but only by
/// Var/T in the mean (~1e-6 T here), far inside the bands.
void expect_revealed_period_law(const oscillator::RingOscillatorConfig& base,
                                std::uint64_t seed0) {
  constexpr std::size_t kDevices = 2000;
  auto bank = ring_bank(base);
  const oscillator::RingOscillator reference(base);
  const double period = reference.nominal_period();
  const double var = reference.sigma_thermal() * reference.sigma_thermal() +
                     bank.sum_variance(1);
  std::vector<double> revealed, following;
  for (std::size_t i = 0; i < kDevices; ++i) {
    auto cfg = base;
    cfg.seed = seed0 + i;
    oscillator::RingOscillator osc(cfg);
    osc.next_period();
    oscillator::EdgeBracket bracket{0.0, osc.edge_time()};
    const double phase = std::fmod(0.6180339887 * double(i), 1.0);
    const double t = osc.edge_time() + (200.0 + phase) * period;
    bracket = osc.advance_to_block(t, bracket);
    revealed.push_back(bracket.next - bracket.prev);
    following.push_back(osc.next_period().period);
  }
  const double cov1 = 0.5 * (bank.sum_variance(2) - 2.0 * bank.sum_variance(1));
  EXPECT_NEAR(stats::mean(revealed) / period, 1.0,
              5.0 * std::sqrt(var / double(kDevices)) / period);
  EXPECT_NEAR(stats::variance(revealed) / var, 1.0,
              ptrng::testing::variance_ratio_tol(kDevices));
  EXPECT_NEAR(stats::covariance(revealed, following), cov1,
              ptrng::testing::covariance_tol(kDevices, var, var, cov1));
}

TEST(AdvanceToBlock, RevealedPeriodFollowsTheSteppedPeriodLaw) {
  {
    SCOPED_TRACE("paper eRO ring");
    expect_revealed_period_law(oscillator::paper_single_config(), 0x7e51'0000);
  }
  {
    // The unattacked eRO corner of the campaign grid with the largest
    // flicker share of the per-period variance.
    std::optional<oscillator::RingOscillatorConfig> corner;
    std::string name;
    for (const auto& spec : model::expand_grid(model::CampaignConfig{})) {
      if (spec.generator != "ero" || spec.attack != "none") continue;
      const auto cfg = model::derated_ring(spec, 0, +1.5e-3);
      if (!corner || cfg.b_fl / cfg.b_th > corner->b_fl / corner->b_th) {
        corner = cfg;
        name = spec.name();
      }
    }
    ASSERT_TRUE(corner.has_value());
    SCOPED_TRACE(name);
    expect_revealed_period_law(*corner, 0x7e52'0000);
  }
  {
    // Thermal jitter is over 99% of a period's variance at campaign
    // levels, which hides the flicker part of the law; a flicker-only
    // paper ring puts all of it on the bank (lag-1 correlation ~0.9).
    SCOPED_TRACE("flicker-only paper ring");
    auto cfg = oscillator::paper_single_config();
    cfg.b_th = 0.0;
    expect_revealed_period_law(cfg, 0x7e53'0000);
  }
}

TEST(AdvanceToBlock, JumpLengthIsNanSafe) {
  auto sd = [](double v) { return [v](std::uint64_t) { return v; }; };
  EXPECT_EQ(oscillator::jump_periods(10.0, 1.0, sd(0.0)), 9u);
  EXPECT_EQ(oscillator::jump_periods(10.0, 1.0, sd(0.1)), 8u);
  EXPECT_EQ(oscillator::jump_periods(1.1, 1.0, sd(0.0)), 0u);
  EXPECT_EQ(oscillator::jump_periods(10.0, 1.0, sd(1.0)), 0u);
  // A non-finite stddev or gap never jumps: the caller steps instead.
  EXPECT_EQ(oscillator::jump_periods(10.0, 1.0, sd(std::nan(""))), 0u);
  EXPECT_EQ(oscillator::jump_periods(10.0, 1.0, sd(INFINITY)), 0u);
  EXPECT_EQ(oscillator::jump_periods(std::nan(""), 1.0, sd(0.0)), 0u);
}

/// Gate-chain cell `i` of a cell array, as CellArrayTrng builds it
/// (the seed aside).
oscillator::GateChainConfig cell_oscillator(const trng::CellArrayConfig& cfg,
                                            std::size_t i,
                                            std::uint64_t seed) {
  oscillator::GateChainConfig cell;
  cell.n_stages = cfg.base_stages + 2 * i;
  cell.stage_delay = cfg.stage_delay;
  cell.sigma_stage = cfg.sigma_stage;
  cell.flicker_amplitude = cfg.flicker_amplitude;
  cell.flicker_floor_hz = cfg.flicker_floor_hz;
  cell.seed = seed;
  return cell;
}

TEST(GateChainBlock, AdvanceSumMatchesSteppedSums) {
  // Thermal-only and flicker-on cells at a 100 ps stage delay (a stage
  // rate of 1e10 Hz, where the flicker bank calibrates finitely). Over
  // independent oscillators (one m-period sum each, so the sums are
  // iid) the jumped and stepped ensembles must agree in mean and
  // variance, and both variances must match sum_stddev(m)^2.
  constexpr std::size_t kOscillators = 400;
  for (const double amplitude : {0.0, 4e-25}) {
    for (const std::uint64_t m : {std::uint64_t{1}, std::uint64_t{200}}) {
      oscillator::GateChainConfig cfg;
      cfg.stage_delay = 100e-12;
      cfg.flicker_amplitude = amplitude;
      stats::RunningStats stepped, jumped;
      double sd = 0.0;
      for (std::size_t o = 0; o < kOscillators; ++o) {
        cfg.seed = 0x9a7e'0000 + 2 * o + 1000 * m;
        oscillator::GateChainOscillator step_osc(cfg);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < m; ++i) sum += step_osc.next_period().period;
        stepped.add(sum);
        cfg.seed += 1;
        oscillator::GateChainOscillator jump_osc(cfg);
        sd = jump_osc.sum_stddev(m);
        jumped.add(jump_osc.advance_sum(m));
        EXPECT_EQ(jump_osc.cycle_count(), m);
      }
      const std::string where = "amplitude " + std::to_string(amplitude) +
                                ", m = " + std::to_string(m);
      EXPECT_NEAR(jumped.mean(), stepped.mean(),
                  ptrng::testing::mean_difference_tol(
                      stepped.stddev(), kOscillators, jumped.stddev(),
                      kOscillators))
          << where;
      EXPECT_NEAR(jumped.mean() / (double(m) * 10.0 * cfg.stage_delay), 1.0,
                  5.0 * sd / std::sqrt(double(kOscillators)) /
                      (double(m) * 10.0 * cfg.stage_delay))
          << where;
      const double tol = ptrng::testing::variance_ratio_tol(kOscillators);
      EXPECT_NEAR(stepped.variance() / (sd * sd), 1.0, tol) << where;
      EXPECT_NEAR(jumped.variance() / (sd * sd), 1.0, tol) << where;
    }
  }
}

TEST(GateChainBlock, NoJumpLandsPastItsTickAtAnyThermalOnlyCellCorner) {
  // Every thermal-only cell_array corner of the campaign grid (all
  // nodes and operating corners), each of its three cells driven like
  // CellArrayTrng drives it: one advance_to_block per latch tick
  // t_k = k * T_s. A jump past the tick would leave the pre-jump edge
  // as bracket.prev, so the bracket would span many periods.
  model::CampaignConfig campaign;
  const std::uint32_t dividers[] = {8, 24, 64, 200, 640, 2000};
  constexpr std::size_t kTicksPerCase = 5000;
  std::uint64_t jumps = 0;
  std::uint64_t overshoots = 0;
  std::uint64_t bad_brackets = 0;
  std::size_t configs = 0;
  for (const auto& spec : model::expand_grid(campaign)) {
    if (spec.generator != "cell_array" || spec.flicker_scale != 0.0) continue;
    ++configs;
    for (const std::uint32_t divider : dividers) {
      auto cfg = model::derated_cell_array(spec, 0, campaign.cells);
      cfg.sample_divider = divider;
      const trng::CellArrayTrng device(cfg);
      const double ts = device.sample_period();
      for (std::size_t c = 0; c < cfg.cells; ++c) {
        oscillator::GateChainOscillator osc(cell_oscillator(
            cfg, c, 0x0ce1'0000 + 64 * configs + 8 * c + divider));
        const double period = 1.0 / osc.f0();
        oscillator::EdgeBracket edge{0.0, osc.next_period().period};
        for (std::size_t k = 1; k <= kTicksPerCase; ++k) {
          const double t = static_cast<double>(k) * ts;
          const std::uint64_t before = osc.cycle_count();
          edge = osc.advance_to_block(t, edge);
          if (osc.cycle_count() - before >= 2) ++jumps;
          if (!(edge.prev <= t && t < edge.next)) ++bad_brackets;
          if (edge.next - edge.prev > 1.5 * period) ++overshoots;
        }
      }
    }
  }
  EXPECT_EQ(configs, 12u);
  EXPECT_GE(jumps, 1'000'000u);
  EXPECT_EQ(overshoots, 0u);
  EXPECT_EQ(bad_brackets, 0u);
}

TEST(GateChainBlock, CellArrayStatisticsMatchTheSteppedApproach) {
  // The jump realizes different streams than stepping every period,
  // but the same process. Over 8 seeded technology-derived 90 nm
  // thermal-only cell arrays at the campaign's divider 64, the mean bit
  // probability and mean Markov entropy rate must sit inside the
  // two-sample band around the stepped sampler's values (per-seed mean
  // and sample stddev over the same seeds and lengths).
  constexpr std::size_t kSeeds = 8;
  constexpr std::size_t kBits = 20000;
  constexpr double kRefP1 = 0.500250000, kRefP1Sd = 0.001742740;
  constexpr double kRefMarkov = 0.991423471, kRefMarkovSd = 0.000379465;
  auto cfg = trng::cell_array_from_technology(
      transistor::technology_node("90nm"), 3, 5, 1.0, false);
  ASSERT_EQ(cfg.sample_divider, 64u);
  stats::RunningStats p1;
  stats::RunningStats markov;
  for (std::size_t s = 1; s <= kSeeds; ++s) {
    cfg.seed = 0xce11'0000 + s;
    trng::CellArrayTrng gen(cfg);
    std::vector<std::uint8_t> bits(kBits);
    gen.generate_into(bits);
    double ones = 0.0;
    for (const auto b : bits) ones += b;
    p1.add(ones / static_cast<double>(kBits));
    markov.add(trng::markov_entropy_rate(bits));
  }
  EXPECT_NEAR(p1.mean(), kRefP1,
              ptrng::testing::mean_difference_tol(kRefP1Sd, kSeeds,
                                                  p1.stddev(), kSeeds));
  EXPECT_NEAR(markov.mean(), kRefMarkov,
              ptrng::testing::mean_difference_tol(kRefMarkovSd, kSeeds,
                                                  markov.stddev(), kSeeds));
}

}  // namespace
