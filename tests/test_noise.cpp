// Unit tests for the noise generators: PSD calibration of every 1/f
// family, stationarity, RTN statistics, power-law model bookkeeping.
#include <gtest/gtest.h>

#include "ignore_result.hpp"

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "noise/filter_bank.hpp"
#include "noise/kasdin.hpp"
#include "noise/psd_model.hpp"
#include "noise/rtn.hpp"
#include "noise/voss.hpp"
#include "noise/white.hpp"
#include "stats/descriptive.hpp"
#include "stats/psd.hpp"

namespace {

using ptrng::test::ignore_result;

using namespace ptrng;
using namespace ptrng::noise;

std::vector<double> collect(NoiseSource& src, std::size_t n) {
  std::vector<double> out(n);
  src.fill(out);
  return out;
}

TEST(WhiteGaussian, MomentsAndPsdLevel) {
  WhiteGaussianNoise src(2.0, 1000.0, 1);
  const auto x = collect(src, 1 << 17);
  stats::RunningStats rs;
  for (double v : x) rs.add(v);
  EXPECT_NEAR(rs.mean(), 0.0, 0.03);
  EXPECT_NEAR(rs.variance(), 4.0, 0.1);
  EXPECT_DOUBLE_EQ(src.psd_two_sided(), 4.0 / 1000.0);

  const auto est = stats::welch(x, 1000.0, 1 << 10);
  const double level = stats::psd_level(est, 50.0, 450.0);
  // one-sided estimate = 2 x two-sided.
  EXPECT_NEAR(level, 2.0 * src.psd_two_sided(),
              0.05 * 2.0 * src.psd_two_sided());
}

TEST(WhiteGaussian, RejectsBadParams) {
  EXPECT_THROW(WhiteGaussianNoise(-1.0, 1.0, 1), ContractViolation);
  EXPECT_THROW(WhiteGaussianNoise(1.0, 0.0, 1), ContractViolation);
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
  // per-stage streams (plus one from its own residual stream), so
  // interleaving it with fill() vs with looped next() must keep the two
  // generators bit-identical.
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.f_min = 1e-3;
  cfg.f_max = 0.25;
  cfg.seed = 0xf112;
  FilterBankFlicker stepped(cfg), batched(cfg);

  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 100 + static_cast<std::size_t>(round) * 501;
    std::vector<double> expected(n), got(n);
    for (auto& x : expected) x = stepped.next();
    batched.fill(got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(got[i], expected[i]) << "round " << round << " sample " << i;
    EXPECT_EQ(batched.advance_sum(64), stepped.advance_sum(64))
        << "round " << round;
  }
}

TEST(WhiteGaussian, FillMatchesSteppedNextExactly) {
  WhiteGaussianNoise stepped(2.0, 1000.0, 0x77), batched(2.0, 1000.0, 0x77);
  std::vector<double> expected(1000);
  for (auto& x : expected) x = stepped.next();
  std::vector<double> got(expected.size());
  batched.fill(got);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
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

TEST(KasdinFlicker, AnalyticPsdAtLowFrequency) {
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = KasdinFlicker::sigma_w_for_amplitude(1.0);
  cfg.fs = 1.0;
  KasdinFlicker src(cfg);
  // Exact discrete PSD -> amplitude/f for f << fs.
  for (double f : {1e-4, 1e-3, 1e-2}) {
    EXPECT_NEAR(src.analytic_psd(f) * f, 1.0, 0.05) << "f = " << f;
  }
}

TEST(KasdinFlicker, MeasuredSlopeMatchesAlpha) {
  for (double alpha : {0.5, 1.0, 1.5}) {
    KasdinFlicker::Config cfg;
    cfg.alpha = alpha;
    cfg.sigma_w = 1.0;
    cfg.fs = 1.0;
    cfg.fir_length = 1 << 13;
    cfg.seed = 5 + static_cast<std::uint64_t>(alpha * 2);
    KasdinFlicker src(cfg);
    const auto x = collect(src, 1 << 18);
    const auto est = stats::welch(x, 1.0, 1 << 12);
    EXPECT_NEAR(stats::psd_slope(est, 2e-3, 0.1), -alpha, 0.12)
        << "alpha = " << alpha;
  }
}

TEST(KasdinFlicker, BlockGenerationIsSeamless) {
  // next() across block boundaries must look statistically identical to a
  // single fill; check no variance discontinuity around the block edge.
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = 1.0;
  cfg.fs = 1.0;
  cfg.block = 1 << 10;
  cfg.fir_length = 1 << 12;
  cfg.seed = 6;
  KasdinFlicker src(cfg);
  const auto x = collect(src, 1 << 15);
  stats::RunningStats at_edges, mid_block;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t pos = i % (1 << 10);
    if (pos < 16 || pos > (1 << 10) - 16) at_edges.add(x[i]);
    else mid_block.add(x[i]);
  }
  EXPECT_NEAR(at_edges.variance() / mid_block.variance(), 1.0, 0.3);
}

TEST(Rtn, FlipRateAndMoments) {
  const double lambda = 0.05;  // per second
  const double fs = 1.0;
  RandomTelegraphNoise rtn(1.0, lambda, fs, 7);
  std::size_t flips = 0;
  double prev = rtn.next();
  const std::size_t n = 400'000;
  stats::RunningStats rs;
  rs.add(prev);
  for (std::size_t i = 1; i < n; ++i) {
    const double v = rtn.next();
    if (v != prev) ++flips;
    prev = v;
    rs.add(v);
  }
  // Expected flips ~ n * (1 - exp(-lambda/fs)).
  const double expected =
      static_cast<double>(n) * (1.0 - std::exp(-lambda / fs));
  EXPECT_NEAR(static_cast<double>(flips), expected, 5.0 * std::sqrt(expected));
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.variance(), 1.0, 0.01);
}

TEST(Rtn, LorentzianPsdShape) {
  const double lambda = 0.01;
  RandomTelegraphNoise rtn(1.0, lambda, 1.0, 8);
  // Analytic: flat below lambda/pi, -2 slope above.
  const double low = rtn.analytic_psd(1e-5);
  const double corner = rtn.analytic_psd(lambda / M_PI);
  EXPECT_NEAR(corner / low, 0.5, 0.01);
  const double high1 = rtn.analytic_psd(0.1);
  const double high2 = rtn.analytic_psd(0.2);
  EXPECT_NEAR(high1 / high2, 4.0, 0.05);
}

TEST(RtnSuperposition, ApproximatesOneOverF) {
  RtnSuperposition::Config cfg;
  cfg.traps = 30;
  cfg.lambda_min = 1e-4;
  cfg.lambda_max = 0.5;
  cfg.amplitude = 1.0;
  cfg.fs = 1.0;
  cfg.seed = 9;
  RtnSuperposition src(cfg);
  EXPECT_EQ(src.trap_count(), 30u);
  // Analytic Lorentzian sum slope ~ -1 in the mid-band.
  std::vector<double> fs_grid, psd_vals;
  for (double f = 3e-4; f < 3e-2; f *= 1.5) {
    fs_grid.push_back(f);
    psd_vals.push_back(src.analytic_psd(f));
  }
  double slope_sum = 0.0;
  for (std::size_t i = 1; i < fs_grid.size(); ++i)
    slope_sum += std::log(psd_vals[i] / psd_vals[i - 1]) /
                 std::log(fs_grid[i] / fs_grid[i - 1]);
  const double mean_slope =
      slope_sum / static_cast<double>(fs_grid.size() - 1);
  EXPECT_NEAR(mean_slope, -1.0, 0.25);
}

TEST(Voss, ProducesLowFrequencyExcess) {
  VossMcCartney src(16, 1.0, 10);
  const auto x = collect(src, 1 << 17);
  const auto est = stats::welch(x, 1.0, 1 << 12);
  const double slope = stats::psd_slope(est, 1e-3, 0.1);
  // Voss is a stair-step pink approximation: slope in (-1.3, -0.5).
  EXPECT_LT(slope, -0.5);
  EXPECT_GT(slope, -1.4);
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
