// Unit tests for the noise layer: the flicker bank's PSD calibration,
// batching and stationarity, power-law model bookkeeping.
#include <gtest/gtest.h>

#include "ignore_result.hpp"

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "noise/filter_bank.hpp"
#include "noise/psd_model.hpp"
#include "stats/descriptive.hpp"
#include "stats/psd.hpp"

namespace {

using ptrng::test::ignore_result;

using namespace ptrng;
using namespace ptrng::noise;

std::vector<double> collect(FilterBankFlicker& src, std::size_t n) {
  std::vector<double> out(n);
  src.fill(out);
  return out;
}

TEST(FilterBankFlicker, AnalyticPsdTracksTarget) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 2.5e-3;
  cfg.fs = 1.0;
  cfg.f_min = 1e-5;
  cfg.f_max = 0.25;
  cfg.stages_per_decade = 3;
  FilterBankFlicker src(cfg);
  // In-band, the Lorentzian sum should match amplitude/f within ~15%.
  for (double f : {1e-4, 1e-3, 1e-2, 0.1}) {
    const double a = src.analytic_psd(f);
    const double t = src.target_psd(f);
    EXPECT_NEAR(a / t, 1.0, 0.15) << "f = " << f;
  }
}

TEST(FilterBankFlicker, CalibrationStaysFiniteUpTo1e11Hz) {
  // The oscillator banks run at the oscillator's event rate: RingOscillator
  // at f0 (~1e8 Hz), GateChainOscillator at its stage-transition rate
  // (1e10 Hz at 100 ps stages). Across that range with a 100 Hz floor the
  // calibrated bank must draw finite samples, give a finite positive
  // sum_variance, and fit amplitude/f in band.
  //
  // Known open defect, deliberately outside this sweep: stage_psd's
  // denominator 1 - 2 rho cos(omega) + rho^2 cancels to <= 0 in double
  // precision once fs reaches ~2e11 Hz (rho -> 1, omega -> 0), so the
  // calibrated gain is NaN and every sample is NaN. The technology-derived
  // cell-array corners (stage rate ~5.7e11 Hz) sit in that regime.
  for (double fs = 1e6; fs <= 1.5e11; fs *= 10.0) {
    FilterBankFlicker src(flicker_band_config(1e-3, fs, 100.0, 0xca1));
    for (int i = 0; i < 256; ++i)
      ASSERT_TRUE(std::isfinite(src.next())) << "fs = " << fs;
    for (const std::size_t k : {std::size_t{1}, std::size_t{64},
                                std::size_t{4096}}) {
      const double v = src.sum_variance(k);
      EXPECT_TRUE(std::isfinite(v) && v > 0.0)
          << "fs = " << fs << ", k = " << k;
    }
    for (double f = 10.0 * src.f_min(); f <= src.f_max() / 10.0; f *= 1.5)
      EXPECT_NEAR(src.analytic_psd(f) / src.target_psd(f), 1.0, 0.1)
          << "fs = " << fs << ", f = " << f;
  }
}

TEST(FilterBankFlicker, MeasuredPsdMatchesAnalytic) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 2;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 1 << 19);
  const auto est = stats::welch(x, 1.0, 1 << 13);
  for (double f : {1e-3, 1e-2, 0.1}) {
    // Interpolate estimate around f.
    const double measured = stats::psd_level(est, f * 0.8, f * 1.25);
    const double analytic = 2.0 * src.analytic_psd(f);  // one-sided
    EXPECT_NEAR(measured / analytic, 1.0, 0.3) << "f = " << f;
  }
}

TEST(FilterBankFlicker, MeasuredSlopeIsMinusOne) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-5;
  cfg.f_max = 0.25;
  cfg.seed = 3;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 1 << 19);
  const auto est = stats::welch(x, 1.0, 1 << 13);
  EXPECT_NEAR(stats::psd_slope(est, 1e-3, 0.1), -1.0, 0.15);
}

TEST(FilterBankFlicker, FillMatchesSteppedNextExactly) {
  // The batched fill() is the production fast path for every oscillator;
  // it must be BIT-identical to stepping, not merely statistically
  // equivalent. The total exceeds twice fill()'s internal 8192-sample
  // staging block, so one call crosses the in-call block boundary, and
  // the unaligned split re-enters mid-block.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 0xf111;
  FilterBankFlicker stepped(cfg), batched(cfg);

  std::vector<double> expected(8192 * 2 + 777);
  for (auto& x : expected) x = stepped.next();

  // Split the fill into unaligned pieces: 37 + 3000 + remainder (the
  // remainder spans > 8192 samples => internal block crossing).
  std::vector<double> got(expected.size());
  batched.fill(std::span<double>(got).subspan(0, 37));
  batched.fill(std::span<double>(got).subspan(37, 3000));
  batched.fill(std::span<double>(got).subspan(3037));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;

  // Both generators must stay in lockstep afterwards.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batched.next(), stepped.next());
}

TEST(FilterBankFlicker, FillComposesWithAdvanceSum) {
  // advance_sum consumes exactly one draw per stage from the same
  // per-stage streams (plus one from its own residual stream), and
  // advance_sums one residual draw per block plus one draw per stage, so
  // interleaving them with fill() vs with looped next() must keep the two
  // generators bit-identical.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-3;
  cfg.f_max = 0.25;
  cfg.seed = 0xf112;
  FilterBankFlicker stepped(cfg), batched(cfg);

  // advance_sums' (k, blocks) per round: the four corners, then a repeat
  // that reuses the memoized plan.
  constexpr std::size_t kSums[][2] = {
      {2, 1}, {200, 1}, {2, 64}, {200, 64}, {2, 64}};
  constexpr int kRounds = 5;
  for (int round = 0; round <= kRounds; ++round) {
    const std::size_t n = 100 + static_cast<std::size_t>(round) * 501;
    std::vector<double> expected(n), got(n);
    for (auto& x : expected) x = stepped.next();
    batched.fill(got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], expected[i]) << "round " << round << " sample " << i;
    if (round == kRounds) break;
    EXPECT_EQ(batched.advance_sum(64), stepped.advance_sum(64))
        << "round " << round;
    const auto [k, blocks] = kSums[round];
    std::vector<double> sums_b(blocks), sums_s(blocks);
    batched.advance_sums(k, sums_b);
    stepped.advance_sums(k, sums_s);
    EXPECT_EQ(sums_b, sums_s) << "round " << round;
  }
}

TEST(FilterBankFlicker, StationaryFromFirstSample) {
  // Variance over the first 1000 samples should match variance over a
  // late window (states start in stationary distribution).
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-3;
  cfg.f_max = 0.25;
  cfg.seed = 4;
  FilterBankFlicker src(cfg);
  const auto x = collect(src, 200'000);
  stats::RunningStats early, late;
  for (std::size_t i = 0; i < 50'000; ++i) early.add(x[i]);
  for (std::size_t i = 150'000; i < 200'000; ++i) late.add(x[i]);
  EXPECT_NEAR(early.variance() / late.variance(), 1.0, 0.35);
}

TEST(PowerLawPsd, EvaluationAndCoefficients) {
  PowerLawPsd psd(Sidedness::two_sided);
  psd.add_term(4.0, -2.0, "thermal");
  psd.add_term(8.0, -3.0, "flicker");
  EXPECT_DOUBLE_EQ(psd(2.0), 4.0 / 4.0 + 8.0 / 8.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(-2.0), 4.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(-3.0), 8.0);
  EXPECT_DOUBLE_EQ(psd.coefficient(0.0), 0.0);
}

TEST(PowerLawPsd, SidednessConversionRoundTrip) {
  PowerLawPsd two(Sidedness::two_sided);
  two.add_term(3.0, -1.0);
  const auto one = two.as(Sidedness::one_sided);
  EXPECT_DOUBLE_EQ(one.coefficient(-1.0), 6.0);
  const auto back = one.as(Sidedness::two_sided);
  EXPECT_DOUBLE_EQ(back.coefficient(-1.0), 3.0);
  // Same-sidedness conversion is the identity.
  const auto same = two.as(Sidedness::two_sided);
  EXPECT_DOUBLE_EQ(same.coefficient(-1.0), 3.0);
}

TEST(PowerLawPsd, MergesDuplicateExponents) {
  PowerLawPsd psd(Sidedness::one_sided);
  psd.add_term(1.0, -1.0, "a");
  psd.add_term(2.0, -1.0, "b");
  EXPECT_DOUBLE_EQ(psd.coefficient(-1.0), 3.0);
}

TEST(PowerLawPsd, RejectsNegativeCoefficientAndZeroFrequency) {
  PowerLawPsd psd;
  EXPECT_THROW(psd.add_term(-1.0, 0.0), ContractViolation);
  psd.add_term(1.0, -1.0);
  EXPECT_THROW(ignore_result(psd(0.0)), ContractViolation);
}

}  // namespace
