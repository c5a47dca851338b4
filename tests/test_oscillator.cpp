// Unit tests for the oscillator simulators: calibration identities
// (Var(J_th) = b_th/f0^3), sigma^2_N shape against Eq. 11, mismatch,
// modulation hook, gate-chain aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "measurement/sn_process.hpp"
#include "oscillator/gate_chain.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::oscillator;

TEST(RingOscillator, ThermalVarianceCalibration) {
  RingOscillatorConfig cfg;
  cfg.f0 = 103e6;
  cfg.b_th = 276.04;
  cfg.b_fl = 0.0;
  cfg.seed = 1;
  RingOscillator osc(cfg);
  stats::RunningStats rs;
  for (int i = 0; i < 400000; ++i) rs.add(osc.next_period().jitter());
  const double expected = cfg.b_th / (cfg.f0 * cfg.f0 * cfg.f0);
  EXPECT_NEAR(rs.variance() / expected, 1.0, 0.02);
  EXPECT_NEAR(rs.mean(), 0.0, 1e-14);
  // sigma_th accessor agrees.
  EXPECT_NEAR(osc.sigma_thermal() * osc.sigma_thermal(), expected, 1e-30);
}

TEST(RingOscillator, MeanPeriodRespectsMismatch) {
  RingOscillatorConfig cfg;
  cfg.f0 = 100e6;
  cfg.b_th = 100.0;
  cfg.b_fl = 0.0;
  cfg.mismatch = 0.01;
  cfg.seed = 2;
  RingOscillator osc(cfg);
  stats::RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(osc.next_period().period);
  EXPECT_NEAR(rs.mean(), 1.0 / (100e6 * 1.01), 1e-12);
  EXPECT_DOUBLE_EQ(osc.nominal_period(), 1.0 / (100e6 * 1.01));
}

TEST(RingOscillator, EdgeTimeAccumulates) {
  RingOscillatorConfig cfg;
  cfg.f0 = 1e9;
  cfg.b_th = 1.0;
  cfg.b_fl = 0.0;
  cfg.seed = 3;
  RingOscillator osc(cfg);
  EXPECT_DOUBLE_EQ(osc.edge_time(), 0.0);
  EXPECT_EQ(osc.cycle_count(), 0u);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) sum += osc.next_period().period;
  EXPECT_NEAR(osc.edge_time(), sum, 1e-18);
  EXPECT_EQ(osc.cycle_count(), 1000u);
}

TEST(RingOscillator, ThermalOnlySigma2NIsLinear) {
  RingOscillatorConfig cfg = paper_single_config(4);
  cfg.b_fl = 0.0;
  RingOscillator osc(cfg);
  std::vector<double> jitter(3'000'000);
  for (auto& j : jitter) j = osc.next_period().jitter();
  const std::vector<std::size_t> grid{10, 100, 1000};
  const auto sweep = measurement::sigma2_n_sweep(jitter, grid);
  ASSERT_EQ(sweep.size(), 3u);
  const auto psd = cfg.phase_psd();
  for (const auto& pt : sweep) {
    const double theory = psd.sigma2_n_thermal(static_cast<double>(pt.n));
    EXPECT_NEAR(pt.sigma2 / theory, 1.0, 0.1) << "N = " << pt.n;
  }
}

TEST(RingOscillator, FlickerAddsQuadraticComponent) {
  // With the paper's coefficients, sigma^2_N/N doubles between N = C and
  // far beyond; check the flicker excess at N = 2000 ~ 1 + 2000/5354.
  RingOscillatorConfig cfg = paper_single_config(5);
  cfg.b_th = oscillator::paper::b_th;  // use pair-level for signal
  cfg.b_fl = oscillator::paper::b_fl;
  RingOscillator osc(cfg);
  std::vector<double> jitter(4'000'000);
  for (auto& j : jitter) j = osc.next_period().jitter();
  const std::vector<std::size_t> grid{50, 2000};
  const auto sweep = measurement::sigma2_n_sweep(jitter, grid);
  ASSERT_EQ(sweep.size(), 2u);
  const auto psd = cfg.phase_psd();
  for (const auto& pt : sweep) {
    const double theory = psd.sigma2_n(static_cast<double>(pt.n));
    EXPECT_NEAR(pt.sigma2 / theory, 1.0, 0.25) << "N = " << pt.n;
  }
  // The per-N ratio grows: flicker present.
  const double r50 = sweep[0].sigma2 / static_cast<double>(sweep[0].n);
  const double r2000 = sweep[1].sigma2 / static_cast<double>(sweep[1].n);
  EXPECT_GT(r2000 / r50, 1.15);
}

TEST(RingOscillator, NextPeriodsMatchesSteppingExactly) {
  // The batched path must be bit-identical to stepping — thermal draws
  // from the same stream in the same order, flicker via the bank's
  // bit-exact fill. Interleave batches with single steps to pin the
  // state handoff.
  RingOscillatorConfig cfg = paper_single_config(0x0521);
  RingOscillator stepped(cfg), batched(cfg);

  std::vector<PeriodSample> expected(3000);
  for (auto& s : expected) s = stepped.next_period();

  std::vector<PeriodSample> got(expected.size());
  batched.next_periods(std::span<PeriodSample>(got).subspan(0, 1000));
  got[1000] = batched.next_period();
  batched.next_periods(std::span<PeriodSample>(got).subspan(1001));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].period, expected[i].period) << "period " << i;
    ASSERT_EQ(got[i].thermal, expected[i].thermal) << "period " << i;
    ASSERT_EQ(got[i].flicker, expected[i].flicker) << "period " << i;
  }
  EXPECT_EQ(batched.edge_time(), stepped.edge_time());
  EXPECT_EQ(batched.cycle_count(), stepped.cycle_count());
}

TEST(RingOscillator, NextPeriodsWithModulationFallsBackToStepping) {
  RingOscillatorConfig cfg = paper_single_config(0x0522);
  RingOscillator stepped(cfg), batched(cfg);
  const SinusoidalModulation mod{1e-3, 1e6};
  stepped.set_modulation(mod);
  batched.set_modulation(mod);
  std::vector<PeriodSample> expected(500), got(500);
  double edge = 0.0;
  for (auto& s : expected) {
    s = stepped.next_period();
    // Each period is (T + jitter) scaled by 1 - m at its start edge,
    // m(t) = 1e-3 sin(2 pi 1e6 t), to the bit.
    ASSERT_EQ(s.period, (stepped.nominal_period() + s.thermal + s.flicker) *
                            (1.0 - 1e-3 * std::sin(2.0 * M_PI * 1e6 * edge)));
    edge = stepped.edge_time();
  }
  batched.next_periods(got);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i].period, expected[i].period) << "period " << i;
}

TEST(RingOscillator, ModulationShiftsMeanFrequency) {
  RingOscillatorConfig cfg;
  cfg.f0 = 100e6;
  cfg.b_th = 1e-3;
  cfg.b_fl = 0.0;
  cfg.seed = 6;
  RingOscillator osc(cfg);
  // The 10000 periods span half a 5 kHz beat, over which sin averages
  // 2/pi: a depth of (pi/2) 1e-3 raises the mean frequency by 0.1%.
  osc.set_modulation({0.5 * M_PI * 1e-3, 5e3});
  stats::RunningStats rs;
  for (int i = 0; i < 10000; ++i) rs.add(osc.next_period().period);
  EXPECT_NEAR(rs.mean() * 100e6, 1.0 - 1e-3, 1e-5);
}

TEST(RingOscillator, GroundTruthDecompositionSums) {
  RingOscillatorConfig cfg = paper_single_config(7);
  RingOscillator osc(cfg);
  for (int i = 0; i < 1000; ++i) {
    const auto s = osc.next_period();
    EXPECT_NEAR(s.period,
                osc.nominal_period() + s.thermal + s.flicker, 1e-21);
  }
}

TEST(RingOscillator, RejectsBadConfig) {
  RingOscillatorConfig cfg;
  cfg.f0 = -1.0;
  EXPECT_THROW(RingOscillator o(cfg), ContractViolation);
  cfg = RingOscillatorConfig{};
  cfg.mismatch = 0.9;
  EXPECT_THROW(RingOscillator o(cfg), ContractViolation);
}

TEST(OscillatorPair, RelativeJitterVarianceIsSum) {
  auto pair = paper_pair(8, 0.0);
  const auto j = pair.relative_jitter(500000);
  stats::RunningStats rs;
  for (double v : j) rs.add(v);
  const auto psd = pair.pair_phase_psd();
  // Var(J1 - J2) ~ b_th_pair/f0^3 plus a small flicker short-term power.
  const double thermal_var =
      psd.b_th() / (psd.f0() * psd.f0() * psd.f0());
  EXPECT_GT(rs.variance(), thermal_var * 0.95);
  EXPECT_LT(rs.variance(), thermal_var * 1.6);
}

TEST(OscillatorPair, PaperPairMatchesPaperCoefficients) {
  auto pair = paper_pair(9);
  const auto psd = pair.pair_phase_psd();
  EXPECT_NEAR(psd.b_th(), paper::b_th, 1e-9);
  EXPECT_NEAR(psd.b_fl(), paper::b_fl, 1e-3);
  EXPECT_DOUBLE_EQ(psd.f0(), paper::f0);
}

TEST(OscillatorPair, TimeErrorMatchesJitterCumsum) {
  auto pair = paper_pair(10, 0.0);
  auto pair2 = paper_pair(10, 0.0);  // identical seeds -> identical noise
  const auto j = pair.relative_jitter(1000);
  const auto x = pair2.relative_time_error(1000);
  ASSERT_EQ(x.size(), 1001u);
  double acc = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) {
    acc -= j[i];
    EXPECT_NEAR(x[i + 1], acc, 1e-18);
  }
}

TEST(OscillatorPair, RelativeJitterIdenticalForAnyThreadCount) {
  // One-ring-per-task fan-out: each task owns one oscillator's state, so
  // the realization must not depend on the pool width.
  auto run = [](std::size_t width) {
    ThreadPool::global().resize(width);
    auto pair = paper_pair(0x0523, 0.0);
    auto j = pair.relative_jitter(20000);
    ThreadPool::global().resize(0);
    return j;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i], two[i]) << "sample " << i;
    ASSERT_EQ(one[i], eight[i]) << "sample " << i;
  }
}

TEST(GateChain, NextPeriodsMatchesSteppingExactly) {
  // Flicker-enabled chain: per-stage banks are consumed two samples per
  // period; the batched assembly replicates next_period()'s accumulation
  // order, so every field is bit-identical. 2600 periods also crosses
  // the internal 1024-period staging block twice.
  GateChainConfig cfg;
  cfg.n_stages = 5;
  cfg.stage_delay = 100e-12;
  cfg.sigma_stage = 1e-12;
  cfg.flicker_amplitude = 1e-26;
  cfg.flicker_floor_hz = 1e4;
  cfg.seed = 0x0524;
  GateChainOscillator stepped(cfg), batched(cfg);

  std::vector<PeriodSample> expected(2600);
  for (auto& s : expected) s = stepped.next_period();
  std::vector<PeriodSample> got(expected.size());
  batched.next_periods(std::span<PeriodSample>(got).subspan(0, 700));
  got[700] = batched.next_period();
  batched.next_periods(std::span<PeriodSample>(got).subspan(701));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].period, expected[i].period) << "period " << i;
    ASSERT_EQ(got[i].thermal, expected[i].thermal) << "period " << i;
    ASSERT_EQ(got[i].flicker, expected[i].flicker) << "period " << i;
  }
}

TEST(GateChain, FrequencyFromStageDelay) {
  GateChainConfig cfg;
  cfg.n_stages = 5;
  cfg.stage_delay = 100e-12;
  cfg.sigma_stage = 1e-12;
  GateChainOscillator osc(cfg);
  EXPECT_NEAR(osc.f0(), 1.0 / (2.0 * 5.0 * 100e-12), 1.0);
}

TEST(GateChain, PeriodVarianceIsTwoNStageVariances) {
  GateChainConfig cfg;
  cfg.n_stages = 7;
  cfg.stage_delay = 50e-12;
  cfg.sigma_stage = 2e-12;
  cfg.seed = 11;
  GateChainOscillator osc(cfg);
  stats::RunningStats rs;
  for (int i = 0; i < 300000; ++i) rs.add(osc.next_period().period);
  EXPECT_NEAR(rs.variance() / osc.period_thermal_variance(), 1.0, 0.03);
  EXPECT_NEAR(rs.mean(), 2.0 * 7.0 * 50e-12, 1e-13);
}

TEST(GateChain, EquivalentPhaseConfigRoundTrips) {
  GateChainConfig cfg;
  cfg.n_stages = 5;
  cfg.stage_delay = 97e-12;
  cfg.sigma_stage = 3e-12;
  cfg.seed = 12;
  GateChainOscillator chain(cfg);
  const auto eq = chain.equivalent_phase_config();
  // The phase-domain oscillator built from the equivalent config has the
  // same per-period thermal variance.
  RingOscillator phase(eq);
  stats::RunningStats a, b;
  for (int i = 0; i < 200000; ++i) {
    a.add(chain.next_period().jitter());
    b.add(phase.next_period().jitter());
  }
  EXPECT_NEAR(a.variance() / b.variance(), 1.0, 0.05);
}

TEST(GateChain, RejectsEvenStages) {
  GateChainConfig cfg;
  cfg.n_stages = 4;
  EXPECT_THROW(GateChainOscillator o(cfg), ContractViolation);
}

TEST(GateChain, FlickerStagesRaiseLowFrequencyContent) {
  GateChainConfig base;
  base.n_stages = 5;
  base.stage_delay = 100e-12;
  base.sigma_stage = 1e-12;
  base.seed = 13;
  GateChainConfig flk = base;
  flk.flicker_amplitude = 1e-26;
  flk.flicker_floor_hz = 1e4;
  GateChainOscillator clean(base), noisy(flk);
  // Accumulate 2000-period block sums: flicker inflates their variance.
  auto block_var = [](GateChainOscillator& osc) {
    stats::RunningStats rs;
    for (int b = 0; b < 600; ++b) {
      double sum = 0.0;
      for (int i = 0; i < 2000; ++i) sum += osc.next_period().jitter();
      rs.add(sum);
    }
    return rs.variance();
  };
  EXPECT_GT(block_var(noisy), 1.5 * block_var(clean));
}

}  // namespace
