// Unit tests for the TRNG layer: sampler mechanics, entropy math
// (theta-series, bounds, empirical estimators), post-processing, online
// monitor behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "stat_tolerance.hpp"
#include "trng/bit_stream.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/online_test.hpp"
#include "trng/postprocess.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::trng;

// One push of the whole stream through a fresh transform.
std::vector<std::uint8_t> one_shot(BitTransform&& transform,
                                   std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  transform.push(bits, out);
  return out;
}

TEST(BitProbability, DegenerateVarianceFollowsMu) {
  // v = 0: deterministic phase.
  EXPECT_NEAR(bit_probability(0.25, 0.0), 1.0, 1e-9);
  EXPECT_NEAR(bit_probability(0.75, 0.0), 0.0, 1e-9);
}

TEST(BitProbability, LargeVarianceIsUnbiased) {
  for (double mu : {0.0, 0.1, 0.37, 0.5}) {
    EXPECT_NEAR(bit_probability(mu, 1.0), 0.5, 1e-8) << "mu " << mu;
  }
}

TEST(BitProbability, SymmetryProperties) {
  const double v = 0.02;
  // p(mu) + p(mu + 0.5) = 1 (half-period shift flips the bit).
  for (double mu : {0.0, 0.1, 0.3}) {
    EXPECT_NEAR(bit_probability(mu, v) + bit_probability(mu + 0.5, v), 1.0,
                1e-10);
  }
}

TEST(BitProbability, MonteCarloAgreement) {
  // Direct Monte Carlo of frac(N(mu, v)) < 0.5 vs the theta series.
  GaussianSampler g(1);
  const double mu = 0.2, v = 0.01;
  const int n = 2'000'000;
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    double x = std::fmod(mu + std::sqrt(v) * g(), 1.0);
    if (x < 0.0) x += 1.0;
    if (x < 0.5) ++ones;
  }
  const double mc = static_cast<double>(ones) / n;
  EXPECT_NEAR(bit_probability(mu, v), mc, 0.002);
}

TEST(WorstCaseBias, DecaysExponentially) {
  EXPECT_NEAR(worst_case_bias(0.0), 0.5, 1e-12);  // clamped
  const double b1 = worst_case_bias(0.05);
  const double b2 = worst_case_bias(0.10);
  // Ratio should be exp(-2 pi^2 * 0.05).
  EXPECT_NEAR(b2 / b1, std::exp(-2.0 * M_PI * M_PI * 0.05), 1e-9);
}

TEST(EntropyBounds, OrderingHolds) {
  // worst-case bound <= average-mu entropy <= 1, monotone in v.
  double prev_lb = 0.0;
  for (double v : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    const double lb = entropy_lower_bound(v);
    const double avg = entropy_average_mu(v);
    EXPECT_LE(lb, avg + 1e-12) << "v = " << v;
    EXPECT_LE(avg, 1.0 + 1e-12);
    EXPECT_GE(lb, prev_lb) << "v = " << v;
    prev_lb = lb;
  }
  EXPECT_NEAR(entropy_lower_bound(0.5), 1.0, 1e-6);
}

TEST(ShannonBlockEntropy, FairCoinIsOneBit) {
  Xoshiro256pp rng(2);
  std::vector<std::uint8_t> bits(400'000);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1u);
  // Plug-in entropy of an ideal source deviates from 1 by a
  // chi-square-distributed bias term; bands from its CI width.
  EXPECT_NEAR(shannon_block_entropy(bits, 1), 1.0,
              ptrng::testing::block_entropy_tol(bits.size(), 1));
  EXPECT_NEAR(shannon_block_entropy(bits, 4), 1.0,
              ptrng::testing::block_entropy_tol(bits.size(), 4));
  EXPECT_NEAR(min_entropy(bits, 4), 1.0,
              ptrng::testing::min_entropy_tol(bits.size(), 4));
}

TEST(ShannonBlockEntropy, BiasedCoinMatchesFormula) {
  Xoshiro256pp rng(3);
  const double p = 0.3;
  std::vector<std::uint8_t> bits(400'000);
  for (auto& b : bits) b = rng.uniform() < p ? 1 : 0;
  const double expected =
      -(p * std::log2(p) + (1 - p) * std::log2(1 - p));
  // Delta-method band for the plug-in entropy at p != 1/2.
  EXPECT_NEAR(shannon_block_entropy(bits, 1), expected,
              ptrng::testing::binary_entropy_tol(bits.size(), p));
  EXPECT_LT(min_entropy(bits, 1), expected);
}

TEST(MarkovEntropyRate, DetectsSerialDependence) {
  // Sticky chain: P(stay) = 0.9 -> H = h_b(0.1).
  Xoshiro256pp rng(4);
  const double p_flip = 0.1;
  std::vector<std::uint8_t> bits(500'000);
  std::uint8_t state = 0;
  for (auto& b : bits) {
    if (rng.uniform() < p_flip) state ^= 1;
    b = state;
  }
  const double expected = -(p_flip * std::log2(p_flip) +
                            (1 - p_flip) * std::log2(1 - p_flip));
  // The rate estimate is h_b of the estimated flip probability over
  // ~n transitions: delta-method band.
  EXPECT_NEAR(markov_entropy_rate(bits), expected,
              ptrng::testing::binary_entropy_tol(bits.size(), p_flip));
  // Plain Shannon on single bits misses it completely. The sticky
  // marginals are serially correlated with correlation length
  // (1+rho)/(1-rho) = 9 for rho = 1 - 2*p_flip: effective n = n/9.
  EXPECT_NEAR(shannon_block_entropy(bits, 1), 1.0,
              ptrng::testing::block_entropy_tol(bits.size() / 9, 1));
}

TEST(CoronEntropy, NearEightForIdealInput) {
  Xoshiro256pp rng(5);
  const std::size_t need = (2560 + 256000) * 8;
  std::vector<std::uint8_t> bits(need);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1u);
  const double f = coron_entropy(bits);
  EXPECT_GT(f, 7.976);
  // AIS31 places the normative 7.976 threshold ~4 sigma below the
  // ideal-source mean E[f] ~ 8.0017 (Coron's correction lands slightly
  // above 8); reuse that implied sigma for a z = 5 upper band instead
  // of a hand-tuned cap.
  const double sigma_f = (8.0017 - 7.976) / 4.0;
  EXPECT_LT(f, 8.0017 + 5.0 * sigma_f);
}

TEST(CoronEntropy, LowForConstantInput) {
  std::vector<std::uint8_t> bits((2560 + 256000) * 8, 0);
  EXPECT_LT(coron_entropy(bits), 1.0);
}

TEST(XorDecimate, ReducesBias) {
  Xoshiro256pp rng(6);
  std::vector<std::uint8_t> bits(600'000);
  for (auto& b : bits) b = rng.uniform() < 0.6 ? 1 : 0;  // bias 0.1
  const auto x2 = one_shot(XorDecimateTransform(2), bits);
  const auto x4 = one_shot(XorDecimateTransform(4), bits);
  // Piling-up: bias(2) = 2*0.1^2 = 0.02; bias(4) = 8*0.1^4 = 8e-4.
  // Bands from the binomial CI width of each stream, not hand-tuned.
  EXPECT_NEAR(bias(bits), 0.1,
              ptrng::testing::proportion_tol(bits.size(), 0.6));
  EXPECT_NEAR(bias(x2), 0.02,
              ptrng::testing::proportion_tol(x2.size(), 0.52));
  EXPECT_LT(bias(x4), 8e-4 + ptrng::testing::bias_tol(x4.size()));
  EXPECT_EQ(x2.size(), bits.size() / 2);
}

TEST(VonNeumann, RemovesBiasEntirely) {
  Xoshiro256pp rng(7);
  std::vector<std::uint8_t> bits(1'000'000);
  for (auto& b : bits) b = rng.uniform() < 0.7 ? 1 : 0;
  const auto out = one_shot(VonNeumannTransform(), bits);
  // A pair is kept with probability 2*p*(1-p) = 0.42; the output count is
  // binomial over the 500k pairs and the output bias is that of a fair
  // coin over out.size() bits — both bands from the CI width.
  const std::size_t pairs = bits.size() / 2;
  const double keep = 2.0 * 0.7 * 0.3;
  EXPECT_NEAR(static_cast<double>(out.size()),
              keep * static_cast<double>(pairs),
              ptrng::testing::count_tol(pairs, keep));
  EXPECT_LT(bias(out), ptrng::testing::bias_tol(out.size()));
}

TEST(VonNeumann, DoesNotFixCorrelation) {
  // Sticky Markov input: von Neumann output remains correlated.
  Xoshiro256pp rng(8);
  std::vector<std::uint8_t> bits(1'000'000);
  std::uint8_t state = 0;
  for (auto& b : bits) {
    if (rng.uniform() < 0.05) state ^= 1;
    b = state;
  }
  const auto out = one_shot(VonNeumannTransform(), bits);
  ASSERT_GT(out.size(), 10000u);
  // Sticky input leaves the VN output correlated (the point of this
  // test) but still symmetric; effective n ~ out.size()/2 for the band.
  EXPECT_LT(bias(out), ptrng::testing::bias_tol(out.size() / 2));
}

TEST(SerialCorrelation, DetectsStickiness) {
  Xoshiro256pp rng(9);
  std::vector<std::uint8_t> iid(200'000), sticky(200'000);
  std::uint8_t state = 0;
  for (std::size_t i = 0; i < iid.size(); ++i) {
    iid[i] = static_cast<std::uint8_t>(rng.next() & 1u);
    if (rng.uniform() < 0.2) state ^= 1;
    sticky[i] = state;
  }
  EXPECT_NEAR(serial_correlation(iid), 0.0,
              ptrng::testing::acf_tol(iid.size()));
  EXPECT_GT(serial_correlation(sticky), 0.5);
}

TEST(EroTrng, ProducesBothSymbols) {
  auto trng = paper_trng(100, 10);
  const auto bits = trng.generate_bits(4000);
  std::size_t ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_GT(ones, 100u);
  EXPECT_LT(ones, 3900u);
}

TEST(EroTrng, FractionalPhaseIsInUnitInterval) {
  auto trng = paper_trng(50, 11);
  for (int i = 0; i < 2000; ++i) {
    (void)trng.next_bit();
    EXPECT_GE(trng.last_fractional_phase(), 0.0);
    EXPECT_LT(trng.last_fractional_phase(), 1.0);
  }
}

TEST(EroTrng, LargerDividerRaisesEntropy) {
  // At the paper's noise level the thermal diffusion per sample is tiny
  // for practical dividers (that is the paper's warning!), so this test
  // uses a noisier device where the divider effect is measurable.
  using namespace ptrng::oscillator;
  auto make = [](std::uint32_t divider) {
    auto sampled = paper_single_config(12);
    auto sampling = paper_single_config(21);
    sampled.b_th *= 100.0;   // ~10x thermal jitter
    sampling.b_th *= 100.0;
    sampled.mismatch = 1.5e-3;
    EroTrngConfig cfg;
    cfg.divider = divider;
    return EroTrng(sampled, sampling, cfg);
  };
  auto fast = make(5);
  auto slow = make(2000);
  const auto bits_fast = fast.generate_bits(60000);
  const auto bits_slow = slow.generate_bits(60000);
  const double h_fast = markov_entropy_rate(bits_fast);
  const double h_slow = markov_entropy_rate(bits_slow);
  EXPECT_GT(h_slow, h_fast - 0.02);
  EXPECT_GT(h_slow, 0.97);
}

TEST(EroTrng, BlockAdvanceMatchesStepping) {
  // The fast path must be statistically indistinguishable: compare bit
  // bias and entropy at the same divider between two instances (different
  // seeds) — and, more sharply, compare an advance_periods oscillator's
  // sigma^2_N against theory (covered in oscillator tests); here check
  // the TRNG-level moments stay sane across dividers that exercise both
  // paths.
  auto a = paper_trng(4, 31);    // stepping path (divider < 8)
  auto b = paper_trng(4000, 31); // block path
  const auto bits_a = a.generate_bits(20000);
  const auto bits_b = b.generate_bits(20000);
  EXPECT_LT(bias(bits_a), 0.5);
  EXPECT_LT(bias(bits_b), 0.5);
  // Both streams produce both symbols.
  EXPECT_GT(bias(bits_b), -0.1);
}

TEST(EroTrng, DutyCycleSkewsBits) {
  using namespace ptrng::oscillator;
  auto sampled = paper_single_config(13);
  auto sampling = paper_single_config(14);
  sampled.mismatch = 1.5e-3;
  EroTrngConfig cfg;
  cfg.divider = 500;
  cfg.duty_cycle = 0.8;
  EroTrng trng(sampled, sampling, cfg);
  const auto bits = trng.generate_bits(20000);
  double ones = 0;
  for (auto b : bits) ones += b;
  // The sampling point sweeps the sampled period slowly, so successive
  // bits are serially correlated: effective n ~ n/16 for the band.
  EXPECT_NEAR(ones / 20000.0, 0.8,
              ptrng::testing::proportion_tol(20000 / 16, 0.8));
}

TEST(EroTrng, RejectsBadConfig) {
  using namespace ptrng::oscillator;
  EroTrngConfig cfg;
  cfg.divider = 0;
  EXPECT_THROW(EroTrng(paper_single_config(1), paper_single_config(2), cfg),
               ContractViolation);
}

TEST(OnlineTest, CalibratedDeviceRarelyAlarms) {
  OnlineTestConfig cfg;
  cfg.n_cycles = 200;
  cfg.windows_per_test = 64;
  cfg.reference_sigma2 = 1e6;  // counts^2 with f0 = 1
  cfg.false_alarm = 1e-4;
  ThermalNoiseMonitor monitor(cfg, 1.0);
  // Counts are a random walk with step stddev 1000 (variance 1e6 matches
  // the reference); rounding noise is negligible at this scale.
  GaussianSampler g(15);
  double walk = 0.0;
  std::size_t alarms = 0, decisions = 0;
  for (int i = 0; i < 64 * 300 + 1; ++i) {
    walk += 1000.0 * g();
    OnlineTestDecision d;
    if (monitor.push_count(static_cast<std::int64_t>(std::llround(walk)),
                           &d)) {
      ++decisions;
      if (d.alarm) ++alarms;
    }
  }
  EXPECT_GT(decisions, 100u);
  // At false_alarm 1e-4 over ~300 decisions, alarms should be rare.
  EXPECT_LE(alarms, 2u);
}

TEST(OnlineTest, DetectsVarianceCollapse) {
  OnlineTestConfig cfg;
  cfg.n_cycles = 100;
  cfg.windows_per_test = 32;
  cfg.false_alarm = 1e-6;
  const double f0 = 1.0;  // s_N = count differences directly
  cfg.reference_sigma2 = 100.0;  // calibrated variance (counts^2)
  ThermalNoiseMonitor monitor(cfg, f0);
  GaussianSampler g(16);
  // Healthy phase: count increments with stddev 10 (variance 100).
  std::size_t healthy_alarms = 0, healthy_decisions = 0;
  double walk = 0.0;
  for (int i = 0; i < 32 * 50 + 1; ++i) {
    walk += 10.0 * g();
    OnlineTestDecision d;
    if (monitor.push_count(static_cast<std::int64_t>(std::llround(walk)),
                           &d)) {
      ++healthy_decisions;
      if (d.alarm) ++healthy_alarms;
    }
  }
  EXPECT_GT(healthy_decisions, 40u);
  EXPECT_LE(healthy_alarms, 1u);
  // Attack phase: jitter collapses to stddev 2 (variance 4 << 100).
  std::size_t attack_alarms = 0, attack_decisions = 0;
  for (int i = 0; i < 32 * 20; ++i) {
    walk += 2.0 * g();
    OnlineTestDecision d;
    if (monitor.push_count(static_cast<std::int64_t>(std::llround(walk)),
                           &d)) {
      ++attack_decisions;
      if (d.alarm) ++attack_alarms;
    }
  }
  EXPECT_GT(attack_decisions, 15u);
  EXPECT_GE(attack_alarms, attack_decisions - 2);
}

TEST(OnlineTest, RejectsBadConfig) {
  OnlineTestConfig cfg;
  cfg.reference_sigma2 = 0.0;
  EXPECT_THROW(ThermalNoiseMonitor(cfg, 1.0), ContractViolation);
}

}  // namespace
