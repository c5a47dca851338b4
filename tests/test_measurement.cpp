// Unit tests for the measurement layer: s_N identities, sweep estimator
// consistency, counter semantics, calibration fit recovery (Sec. IV).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "measurement/calibration.hpp"
#include "measurement/counter.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "measurement/sn_process.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "stat_tolerance.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::measurement;

TEST(SnProcess, TimeErrorIsNegatedCumsum) {
  const std::vector<double> j{1.0, -2.0, 3.0};
  const auto x = time_error_from_jitter(j);
  ASSERT_EQ(x.size(), 4u);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
  EXPECT_DOUBLE_EQ(x[3], -2.0);
}

TEST(SnProcess, Eq4AndEq8Agree) {
  // s_N from the a_j-weighted jitter sum must equal the second difference
  // of the time error.
  GaussianSampler g(1);
  std::vector<double> j(1000);
  for (auto& v : j) v = g();
  const std::size_t n = 7;
  const auto from_jitter = sn_from_jitter(j, n, 1);
  // Manual Eq. 4: sum_{k=N..2N-1} J_{i+k} - sum_{k=0..N-1} J_{i+k}.
  for (std::size_t i = 0; i < from_jitter.size(); ++i) {
    double manual = 0.0;
    for (std::size_t k = 0; k < n; ++k) manual -= j[i + k];
    for (std::size_t k = n; k < 2 * n; ++k) manual += j[i + k];
    EXPECT_NEAR(from_jitter[i], manual, 1e-12) << "i = " << i;
  }
}

TEST(SnProcess, StrideControlsSampleCount) {
  std::vector<double> j(1000, 0.5);
  const auto overlapping = sn_from_jitter(j, 10, 1);
  const auto disjoint = sn_from_jitter(j, 10, 20);
  EXPECT_GT(overlapping.size(), 10 * disjoint.size() / 2);
  EXPECT_NEAR(static_cast<double>(disjoint.size()), 1000.0 / 20.0, 2.0);
}

TEST(SnProcess, WhiteJitterVarianceIs2NSigma2) {
  GaussianSampler g(2);
  const double sigma = 3e-12;
  std::vector<double> j(2'000'000);
  for (auto& v : j) v = sigma * g();
  for (std::size_t n : {1u, 10u, 100u}) {
    const auto sn = sn_from_jitter(j, n);
    const double var = stats::variance(sn);
    const double expected = 2.0 * static_cast<double>(n) * sigma * sigma;
    EXPECT_NEAR(var / expected, 1.0, 0.05) << "N = " << n;
  }
}

TEST(Sigma2NSweep, MatchesDirectVarianceOnWhite) {
  GaussianSampler g(3);
  std::vector<double> j(500'000);
  for (auto& v : j) v = g() * 1e-12;
  const std::vector<std::size_t> grid{5, 50, 500};
  const auto sweep = sigma2_n_sweep(j, grid);
  ASSERT_EQ(sweep.size(), 3u);
  for (const auto& pt : sweep) {
    const double expected = 2.0 * static_cast<double>(pt.n) * 1e-24;
    EXPECT_NEAR(pt.sigma2 / expected, 1.0, 0.1);
    EXPECT_GT(pt.ci_hi, pt.sigma2);
    EXPECT_LT(pt.ci_lo, pt.sigma2);
    EXPECT_GT(pt.samples, 100u);
  }
}

TEST(Sigma2NSweep, CiWidthShrinksWithData) {
  GaussianSampler g(4);
  std::vector<double> small(50'000), large(800'000);
  for (auto& v : small) v = g();
  for (auto& v : large) v = g();
  const std::vector<std::size_t> grid{100};
  const auto s = sigma2_n_sweep(small, grid);
  const auto l = sigma2_n_sweep(large, grid);
  ASSERT_EQ(s.size(), 1u);
  ASSERT_EQ(l.size(), 1u);
  const double rel_s = (s[0].ci_hi - s[0].ci_lo) / s[0].sigma2;
  const double rel_l = (l[0].ci_hi - l[0].ci_lo) / l[0].sigma2;
  EXPECT_LT(rel_l, rel_s);
}

TEST(Sigma2NSweep, SkipsOversizedN) {
  GaussianSampler g(5);
  std::vector<double> j(1000);
  for (auto& v : j) v = g();
  const std::vector<std::size_t> grid{10, 100000};
  const auto sweep = sigma2_n_sweep(j, grid);
  EXPECT_EQ(sweep.size(), 1u);
}

TEST(Calibration, RecoversKnownCoefficientsFromSyntheticCurve) {
  // Exact Eq. 11 points + the paper's constants must invert exactly.
  // These are NUMERICAL-precision bands on a noise-free synthetic curve
  // (nothing is sampled), so the statistical-tolerance helpers do not
  // apply; the 1e-6 bands bound Cholesky round-off only.
  using namespace ptrng::oscillator;
  const phase_noise::PhasePsd psd(paper::b_th, paper::b_fl, paper::f0);
  std::vector<double> n, s2;
  for (double v = 10; v <= 3e5; v *= 2.0) {
    n.push_back(v);
    s2.push_back(psd.sigma2_n(v));
  }
  const auto cal = fit_sigma2_n(n, s2, paper::f0);
  EXPECT_NEAR(cal.b_th / paper::b_th, 1.0, 1e-6);
  EXPECT_NEAR(cal.b_fl / paper::b_fl, 1.0, 1e-6);
  EXPECT_NEAR(cal.sigma_thermal * 1e12, 15.89, 0.05);
  EXPECT_NEAR(cal.jitter_ratio * 1000.0, 1.6, 0.05);
  EXPECT_NEAR(cal.rn_constant, 5354.0, 20.0);
  EXPECT_NEAR(cal.independence_threshold(0.95), 281.0, 2.0);
  EXPECT_GT(cal.r_squared, 0.999999);
}

TEST(Calibration, RecoversFromSimulatedSweep) {
  using namespace ptrng::oscillator;
  auto pair = paper_pair(6, 0.0);
  const auto j = pair.relative_jitter(4'000'000);
  const auto grid = log_integer_grid(8, 30000, 24);
  const auto sweep = sigma2_n_sweep(j, grid);
  const auto cal = fit_sigma2_n(sweep, paper::f0);
  // Bands from the weighted-fit standard errors instead of hand-tuned
  // constants. The sweep points reuse one jitter stream over overlapping
  // s_N windows (and flicker correlates them further), so the nominal
  // SEs underestimate the true sampling error by a factor of a few —
  // observed deviation/SE ratios reach ~4 across seeds; inflation 3 with
  // z = 5 carries that headroom.
  const double tol_b_th =
      ptrng::testing::regression_coef_tol(cal.b_th, cal.b_th_err, 5.0, 3.0);
  const double tol_b_fl =
      ptrng::testing::regression_coef_tol(cal.b_fl, cal.b_fl_err, 5.0, 3.0);
  EXPECT_NEAR(cal.b_th / paper::b_th, 1.0, tol_b_th);
  EXPECT_NEAR(cal.b_fl / paper::b_fl, 1.0, tol_b_fl);
  // sigma_th = sqrt(b_th/f0^3): relative error is half of b_th's.
  EXPECT_NEAR(cal.sigma_thermal * 1e12, 15.89, 15.89 * 0.5 * tol_b_th);
}

TEST(Calibration, ThermalRatioHelpers) {
  JitterCalibration cal;
  cal.rn_constant = 5354.0;
  EXPECT_NEAR(cal.thermal_ratio(281.0), 0.95, 0.001);
  EXPECT_NEAR(cal.independence_threshold(0.95), 281.0, 1.0);
  EXPECT_NEAR(cal.independence_threshold(0.5), 5354.0, 1.0);
}

TEST(Counter, CountsNominalFrequencyRatio) {
  // Noise-free oscillators with a 2:1 frequency ratio: Q = 2N exactly
  // (up to the +-1 boundary count).
  oscillator::RingOscillatorConfig fast, slow;
  fast.f0 = 200e6;
  fast.b_th = 1e-12;
  fast.b_fl = 0.0;
  fast.seed = 7;
  slow.f0 = 100e6;
  slow.b_th = 1e-12;
  slow.b_fl = 0.0;
  slow.seed = 8;
  oscillator::RingOscillator osc1(fast), osc2(slow);
  DifferentialCounter counter(osc1, osc2);
  const auto counts = counter.count_windows(100, 50);
  ASSERT_EQ(counts.size(), 50u);
  for (auto q : counts) EXPECT_NEAR(static_cast<double>(q), 200.0, 1.5);
}

TEST(Counter, WindowEndTieGoesToNextWindow) {
  // Noise-free rings at 2^27 and 2^26 Hz: every edge time is exact in
  // binary, and each window end falls exactly on an osc1 edge. That edge
  // belongs to the next window, so the first window of the run counts
  // 2N - 1 and every later one 2N, across re-entry at a new N.
  oscillator::RingOscillatorConfig fast, slow;
  fast.f0 = 0x1p27;
  fast.b_th = 0.0;
  fast.b_fl = 0.0;
  slow.f0 = 0x1p26;
  slow.b_th = 0.0;
  slow.b_fl = 0.0;
  oscillator::RingOscillator osc1(fast), osc2(slow);
  DifferentialCounter counter(osc1, osc2);
  bool first = true;
  for (std::int64_t n : {1, 5, 100, 1000}) {
    std::vector<std::int64_t> expected(4, 2 * n);
    if (first) expected[0] = 2 * n - 1;
    first = false;
    EXPECT_EQ(counter.count_windows(static_cast<std::size_t>(n), 4), expected)
        << "N = " << n;
  }
}

TEST(Counter, TotalCountConservation) {
  // Exact invariant of the bracket walk: on fresh rings every osc1 edge
  // generated after the first is counted in some window except the
  // bracket's upper edge, past the last window end.
  using namespace ptrng::oscillator;
  auto c1 = paper_single_config(9);
  auto c2 = paper_single_config(10);
  c1.mismatch = 2e-3;
  RingOscillator osc1(c1), osc2(c2);
  DifferentialCounter counter(osc1, osc2);
  std::int64_t total = 0;
  for (auto q : counter.count_windows(500, 40)) total += q;
  EXPECT_EQ(static_cast<std::uint64_t>(total) + 1, osc1.cycle_count());
  // The invariant survives re-entry with a different window length.
  for (auto q : counter.count_windows(123, 7)) total += q;
  EXPECT_EQ(static_cast<std::uint64_t>(total) + 1, osc1.cycle_count());
}

struct SplitRun {
  std::vector<std::int64_t> counts;
  std::uint64_t cycles = 0;  ///< osc1.cycle_count() after the run
};

/// `splits` consecutive count_windows calls over 120 windows of 700
/// cycles, on a fresh pair.
SplitRun split_run(std::size_t splits) {
  oscillator::RingOscillatorConfig c1, c2;
  c1.seed = 0x51;
  c2.seed = 0x52;
  c2.mismatch = 1.5e-3;
  oscillator::RingOscillator osc1(c1), osc2(c2);
  DifferentialCounter counter(osc1, osc2);
  const std::size_t n_windows = 120;
  SplitRun r;
  for (std::size_t s = 0; s < splits; ++s) {
    const std::size_t take = (s + 1 == splits)
                                 ? n_windows - r.counts.size()
                                 : n_windows / splits;
    const auto part = counter.count_windows(700, take);
    r.counts.insert(r.counts.end(), part.begin(), part.end());
  }
  r.cycles = osc1.cycle_count();
  return r;
}

TEST(CounterSimd, SplitRunPreservesCountsAndConservation) {
  // Splitting a run into several calls changes neither its counts nor
  // how many osc1 edges it generated, and the bracket invariant holds.
  const auto whole = split_run(1);
  const auto split = split_run(3);
  EXPECT_EQ(whole.counts, split.counts);
  EXPECT_EQ(whole.cycles, split.cycles);
  std::int64_t total = 0;
  for (auto q : whole.counts) total += q;
  EXPECT_EQ(static_cast<std::uint64_t>(total) + 1, whole.cycles);
}

TEST(Counter, SnFromCountsScalesByF0) {
  const std::vector<std::int64_t> counts{100, 103, 99, 101};
  const auto sn = DifferentialCounter::sn_from_counts(counts, 100e6);
  ASSERT_EQ(sn.size(), 3u);
  EXPECT_NEAR(sn[0], 3.0 / 100e6, 1e-15);
  EXPECT_NEAR(sn[1], -4.0 / 100e6, 1e-15);
  EXPECT_NEAR(sn[2], 2.0 / 100e6, 1e-15);
}

TEST(Counter, Sigma2NTracksOracleAtLargeN) {
  // At large N the accumulated jitter dwarfs the quantization floor, so
  // counter sigma^2_N ~ oracle sigma^2_N.
  using namespace ptrng::oscillator;
  auto pair_cfg1 = paper_single_config(11);
  auto pair_cfg2 = paper_single_config(12);
  pair_cfg1.mismatch = +1.5e-3;
  pair_cfg2.mismatch = -1.5e-3;
  RingOscillator osc1(pair_cfg1), osc2(pair_cfg2);
  DifferentialCounter counter(osc1, osc2);
  const std::size_t n = 60000;
  const std::size_t windows = 220;
  const double measured = counter.sigma2_n(n, windows);
  const phase_noise::PhasePsd psd(paper::b_th, paper::b_fl, paper::f0);
  const double theory = psd.sigma2_n(static_cast<double>(n));
  // Tolerance from the CI width of a variance ratio over ~windows-1 s_N
  // samples (flicker correlates neighbouring windows, so z = 5 carries
  // the headroom, not a hand-tuned band).
  EXPECT_NEAR(measured / theory, 1.0,
              ptrng::testing::variance_ratio_tol(windows - 1));
}

TEST(Counter, QuantizationFloorDominatesAtSmallN) {
  // At small N the +-1-count error dominates: measured variance is far
  // above the oracle value and close to the uniform-quantization floor
  // 0.5/f0^2 (documented limitation of Eq. 12; docs/ARCHITECTURE.md §3).
  using namespace ptrng::oscillator;
  auto c1 = paper_single_config(13);
  auto c2 = paper_single_config(14);
  c1.mismatch = +1.5e-3;
  c2.mismatch = -1.5e-3;
  RingOscillator osc1(c1), osc2(c2);
  DifferentialCounter counter(osc1, osc2);
  const std::size_t n = 20;
  const double measured = counter.sigma2_n(n, 2000);
  const phase_noise::PhasePsd psd(paper::b_th, paper::b_fl, paper::f0);
  const double oracle = psd.sigma2_n(static_cast<double>(n));
  EXPECT_GT(measured, 10.0 * oracle);
  // The iid-uniform bound on the +-1-count error is 0.5/f0^2; with the
  // phase sweeping slowly (N*mismatch << 1) boundary errors partially
  // cancel, so the realized floor sits below the bound but still orders
  // of magnitude above the oracle.
  const double floor_bound = 0.5 / (paper::f0 * paper::f0);
  EXPECT_GT(measured, 0.02 * floor_bound);
  EXPECT_LT(measured, 1.5 * floor_bound);
}

}  // namespace
