// Focused edge-case tests: counter zero-count windows and osc1
// ownership, the theta-series / wrapped-Gaussian switchover in
// bit_probability, sigma^2_N confidence-interval coverage, and entropy
// bound consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "measurement/counter.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "trng/entropy.hpp"

namespace {

using namespace ptrng;

TEST(CounterEdgeCases, SlowSampledOscillatorYieldsZeroCountWindows) {
  // Osc1 runs at 1/10 of Osc2: windows of 5 Osc2 cycles usually contain
  // zero Osc1 edges; counts must average 0.5 and never go negative.
  oscillator::RingOscillatorConfig slow, fast;
  slow.f0 = 10e6;
  slow.b_th = 1e-9;
  slow.b_fl = 0.0;
  slow.seed = 1;
  fast.f0 = 100e6;
  fast.b_th = 1e-9;
  fast.b_fl = 0.0;
  fast.seed = 2;
  oscillator::RingOscillator osc1(slow), osc2(fast);
  measurement::DifferentialCounter counter(osc1, osc2);
  const auto counts = counter.count_windows(5, 2000);
  std::int64_t total = 0;
  std::size_t zeros = 0;
  for (auto q : counts) {
    ASSERT_GE(q, 0);
    ASSERT_LE(q, 2);
    total += q;
    if (q == 0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 60.0);
  EXPECT_GT(zeros, 500u);
}

TEST(CounterEdgeCases, SingleCycleWindows) {
  // N = 1: counts are 0/1/2-valued around a mean of f1/f2.
  auto c1 = oscillator::paper_single_config(3);
  auto c2 = oscillator::paper_single_config(4);
  oscillator::RingOscillator osc1(c1), osc2(c2);
  measurement::DifferentialCounter counter(osc1, osc2);
  const auto counts = counter.count_windows(1, 5000);
  double mean = 0.0;
  for (auto q : counts) {
    ASSERT_GE(q, 0);
    ASSERT_LE(q, 3);
    mean += static_cast<double>(q);
  }
  mean /= static_cast<double>(counts.size());
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(CounterEdgeCases, AdvancingOsc1BetweenCallsIsAContractViolation) {
  // The counter owns osc1's advance: a period stepped by anyone else
  // between count_windows calls leaves its bracket stale.
  auto c1 = oscillator::paper_single_config(5);
  auto c2 = oscillator::paper_single_config(6);
  oscillator::RingOscillator osc1(c1), osc2(c2);
  measurement::DifferentialCounter counter(osc1, osc2);
  (void)counter.count_windows(100, 3);
  (void)osc1.next_period();
  EXPECT_THROW((void)counter.count_windows(100, 3), ContractViolation);
}

TEST(BitProbability, ContinuousAcrossRepresentationSwitch) {
  // The wrapped-Gaussian (v < 0.04) and theta-series (v >= 0.04) branches
  // must agree at the boundary to full precision (dp/dv ~ -4, so the v
  // gap must be tiny to isolate representation error from the genuine
  // derivative).
  for (double mu : {0.0, 0.13, 0.25, 0.4, 0.49}) {
    const double below = trng::bit_probability(mu, 0.04 - 1e-12);
    const double above = trng::bit_probability(mu, 0.04 + 1e-12);
    EXPECT_NEAR(below, above, 1e-9) << "mu = " << mu;
  }
}

TEST(BitProbability, WrappedGaussianMatchesThetaDeepInOverlap) {
  // Both representations are exact; compare across the overlap region.
  for (double v : {0.01, 0.02, 0.03, 0.05, 0.08}) {
    for (double mu : {0.1, 0.3}) {
      // Evaluate via the theta series regardless of branch by exploiting
      // the symmetry p(mu, v) + p(mu+0.5, v) = 1 as a cross-check.
      const double p = trng::bit_probability(mu, v);
      const double q = trng::bit_probability(mu + 0.5, v);
      EXPECT_NEAR(p + q, 1.0, 1e-9) << "v = " << v << " mu = " << mu;
    }
  }
}

class CiCoverage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CiCoverage, Sigma2nIntervalsContainTruth) {
  // For white jitter the true Var(s_N) = 2 N sigma^2; the 95% chi-square
  // CI should contain it in the vast majority of replicas.
  const std::size_t n = GetParam();
  const double sigma = 1e-12;
  const double truth = 2.0 * static_cast<double>(n) * sigma * sigma;
  int covered = 0;
  const int reps = 40;
  for (int r = 0; r < reps; ++r) {
    GaussianSampler g(1000 + static_cast<std::uint64_t>(r) * 7 + n);
    std::vector<double> j(60'000);
    for (auto& v : j) v = sigma * g();
    const std::vector<std::size_t> grid{n};
    const auto sweep = measurement::sigma2_n_sweep(j, grid);
    ASSERT_EQ(sweep.size(), 1u);
    if (truth >= sweep[0].ci_lo && truth <= sweep[0].ci_hi) ++covered;
  }
  // 95% nominal; allow down to 80% for the conservative effective-dof
  // approximation.
  EXPECT_GE(covered, 32) << "N = " << n;
}

INSTANTIATE_TEST_SUITE_P(Ns, CiCoverage, ::testing::Values(10, 50, 200));

TEST(EntropyBounds, LowerBoundBelowExactForAllMu) {
  // The worst-case conditional bound must lower-bound the exact bit
  // entropy at every offset mu.
  for (double v : {0.01, 0.05, 0.1}) {
    const double lb = trng::entropy_lower_bound(v);
    for (double mu = 0.0; mu < 1.0; mu += 0.1) {
      const double h = trng::bit_probability(mu, v);
      const double exact =
          (h <= 0.0 || h >= 1.0)
              ? 0.0
              : -(h * std::log2(h) + (1 - h) * std::log2(1 - h));
      EXPECT_LE(lb, exact + 1e-9) << "v = " << v << " mu = " << mu;
    }
  }
}

TEST(AdvanceEdgeCases, ZeroAndOnePeriod) {
  auto cfg = oscillator::paper_single_config(5);
  oscillator::RingOscillator osc(cfg);
  osc.advance_periods(0);
  EXPECT_EQ(osc.cycle_count(), 0u);
  EXPECT_DOUBLE_EQ(osc.edge_time(), 0.0);
  osc.advance_periods(1);
  EXPECT_EQ(osc.cycle_count(), 1u);
  EXPECT_GT(osc.edge_time(), 0.0);
}

}  // namespace
