// Statistical-equivalence tests for the exact block-advance fast paths:
// FilterBankFlicker::advance_sum and RingOscillator::advance_periods must
// be indistinguishable (in distribution) from stepping sample by sample,
// and RingOscillator::advance_to_block's jitter-sized jump must never
// land past its target.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "model/fleet_campaign.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "stat_tolerance.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
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
  // With a slow deterministic modulation, the chunked fast path must land
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
  auto mod = [](double t) {
    return 1e-3 * std::sin(2.0 * M_PI * 50e3 * t);
  };
  stepper.set_modulation(mod);
  jumper.set_modulation(mod);
  for (int i = 0; i < 20000; ++i) stepper.next_period();
  jumper.advance_periods(20000);
  EXPECT_NEAR(jumper.edge_time() / stepper.edge_time(), 1.0, 1e-6);
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

TEST(AdvanceToBlock, NoJumpLandsPastItsTargetAtAnyUnattackedCorner) {
  // Every unattacked ring-family corner of the campaign grid (all nodes,
  // corner deratings, flicker x0/1/4), driven like an eRO: a sampling
  // ring advanced by the divider sets each target. A jump that landed
  // past its target would leave the pre-jump edge as bracket.prev, so
  // the returned bracket would span many periods instead of one.
  model::CampaignConfig campaign;
  const std::uint32_t dividers[] = {8, 24, 64, 200, 640, 2000};
  constexpr std::size_t kCallsPerCase = 4700;
  std::uint64_t jumps = 0;
  std::uint64_t overshoots = 0;
  std::uint64_t bad_brackets = 0;
  std::size_t configs = 0;
  for (const auto& spec : model::expand_grid(campaign)) {
    if (spec.generator != "ero" || spec.attack != "none") continue;
    ++configs;
    for (const std::uint32_t divider : dividers) {
      const std::uint64_t seed = 0x0c05'0000 + 16 * configs + divider;
      oscillator::RingOscillator sampled(
          model::derated_ring(spec, seed, +1.5e-3));
      oscillator::RingOscillator sampling(
          model::derated_ring(spec, seed ^ 0xabcdef9876ULL, -1.5e-3));
      sampled.next_period();
      oscillator::EdgeBracket bracket{0.0, sampled.edge_time()};
      const double period = sampled.nominal_period();
      for (std::size_t i = 0; i < kCallsPerCase; ++i) {
        sampling.advance_periods(divider);
        const double t = sampling.edge_time();
        const std::uint64_t before = sampled.cycle_count();
        bracket = sampled.advance_to_block(t, bracket);
        if (sampled.cycle_count() - before >= 2) ++jumps;
        if (!(bracket.prev <= t && t < bracket.next) ||
            bracket.next != sampled.edge_time())
          ++bad_brackets;
        if (bracket.next - bracket.prev > 1.5 * period) ++overshoots;
      }
    }
  }
  EXPECT_EQ(configs, 36u);
  EXPECT_GE(jumps, 1'000'000u);
  EXPECT_EQ(overshoots, 0u);
  EXPECT_EQ(bad_brackets, 0u);
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

}  // namespace
