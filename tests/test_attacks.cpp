// Unit tests for the attack models: noise suppression, deterministic
// modulation, detectability by the online monitor.
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/injection.hpp"
#include "common/contracts.hpp"
#include "measurement/counter.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "stats/descriptive.hpp"
#include "trng/online_test.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::attacks;

TEST(InjectionAttack, SuppressesThermalQuadratically) {
  oscillator::RingOscillatorConfig cfg = oscillator::paper_single_config(1);
  InjectionAttack atk;
  atk.coupling = 0.5;
  const auto attacked = atk.apply(cfg);
  EXPECT_NEAR(attacked.b_th, cfg.b_th * 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(attacked.b_fl, cfg.b_fl);  // flicker untouched
}

TEST(InjectionAttack, ZeroCouplingIsIdentity) {
  oscillator::RingOscillatorConfig cfg = oscillator::paper_single_config(2);
  InjectionAttack atk;
  atk.coupling = 0.0;
  const auto attacked = atk.apply(cfg);
  EXPECT_DOUBLE_EQ(attacked.b_th, cfg.b_th);
}

TEST(InjectionAttack, RejectsFullLock) {
  oscillator::RingOscillatorConfig cfg = oscillator::paper_single_config(3);
  InjectionAttack atk;
  atk.coupling = 1.0;
  EXPECT_THROW((void)atk.apply(cfg), ContractViolation);
}

TEST(InjectionAttack, ModulationIsSinusoidalAtTheBeat) {
  InjectionAttack atk;
  atk.f_injected = 100.001e6;
  atk.modulation_depth = 1e-4;
  oscillator::RingOscillatorConfig cfg;
  cfg.f0 = 100e6;
  cfg.mismatch = 0.0;
  const auto mod = atk.modulation_for(cfg);  // beat = 1 kHz
  EXPECT_EQ(mod.depth, 1e-4);
  EXPECT_NEAR(mod.f_beat, 1e3, 1e-6);
  EXPECT_NEAR(mod(0.0), 0.0, 1e-12);
  EXPECT_NEAR(mod(0.25e-3), 1e-4, 1e-9);  // quarter period -> peak
  EXPECT_NEAR(mod(0.5e-3), 0.0, 1e-9);
}

TEST(InjectionAttack, BeatTracksEachRingsOwnFrequency) {
  // Two mismatched rings attacked by the same tone see different beats —
  // the differential signature the detector relies on.
  InjectionAttack atk;
  atk.f_injected = 103.05e6;
  oscillator::RingOscillatorConfig c1 = oscillator::paper_single_config(7);
  oscillator::RingOscillatorConfig c2 = oscillator::paper_single_config(8);
  c1.mismatch = +1.5e-3;
  c2.mismatch = -1.5e-3;
  const auto m1 = atk.modulation_for(c1);
  const auto m2 = atk.modulation_for(c2);
  // Sample both modulations; they must decorrelate quickly.
  double max_diff = 0.0;
  for (double t = 0.0; t < 1e-4; t += 1e-6)
    max_diff = std::max(max_diff, std::abs(m1(t) - m2(t)));
  EXPECT_GT(max_diff, 0.5e-4);
}

TEST(InjectionAttack, AttackedOscillatorHasLowerJitterVariance) {
  oscillator::RingOscillatorConfig cfg = oscillator::paper_single_config(4);
  cfg.b_fl = 0.0;
  InjectionAttack atk;
  atk.coupling = 0.7;
  atk.modulation_depth = 0.0;
  oscillator::RingOscillator clean(cfg);
  auto attacked = make_attacked_oscillator(cfg, atk);
  stats::RunningStats a, b;
  for (int i = 0; i < 200000; ++i) {
    a.add(clean.next_period().jitter());
    b.add(attacked.next_period().jitter());
  }
  EXPECT_NEAR(b.variance() / a.variance(), 0.09, 0.02);
}

TEST(InjectionAttack, EmPresetIsAggressive) {
  const auto atk = em_harmonic_attack();
  EXPECT_GE(atk.coupling, 0.5);
  EXPECT_GT(atk.modulation_depth, 1e-4);
}

TEST(AttackDetection, MonitorAlarmsUnderInjection) {
  using namespace ptrng::oscillator;
  // Calibrate the monitor against the measured healthy variance (which
  // includes the counter quantization floor), then detect a strong EM
  // injection. Pure thermal suppression alone hides below the
  // quantization floor at counter-accessible N (the paper's paradox —
  // characterized in bench_attack_detection); the differential beat the
  // injection superimposes is the robust signature.
  const std::size_t n_cycles = 20000;
  const std::size_t wpt = 4096;
  auto h1 = paper_single_config(5);
  auto h2 = paper_single_config(6);
  h1.mismatch = +1.5e-3;
  h2.mismatch = -1.5e-3;
  RingOscillator healthy1(h1), healthy2(h2);
  measurement::DifferentialCounter healthy_counter(healthy1, healthy2);
  const double ref = healthy_counter.sigma2_n(n_cycles, 16384);

  trng::OnlineTestConfig cfg;
  cfg.n_cycles = n_cycles;
  cfg.windows_per_test = wpt;
  cfg.reference_sigma2 = ref;
  cfg.false_alarm = 1e-4;
  trng::ThermalNoiseMonitor monitor(cfg, paper::f0);

  // Healthy stream: at most 1 alarm expected in 6 decisions.
  RingOscillator fresh1(h1), fresh2(h2);
  measurement::DifferentialCounter counter(fresh1, fresh2);
  std::size_t healthy_alarms = 0, healthy_decisions = 0;
  for (const auto q : counter.count_windows(n_cycles, wpt * 6 + 1)) {
    trng::OnlineTestDecision d;
    if (monitor.push_count(q, &d)) {
      ++healthy_decisions;
      if (d.alarm) ++healthy_alarms;
    }
  }
  EXPECT_GE(healthy_decisions, 5u);
  EXPECT_LE(healthy_alarms, 1u);

  // Attacked stream: strong EM injection on both rings; the common tone
  // beats differently against each ring's natural frequency, inflating
  // Var(s_N) well past the acceptance band.
  const InjectionAttack atk = em_harmonic_attack(0.9);
  auto a1 = make_attacked_oscillator(h1, atk);
  auto a2 = make_attacked_oscillator(h2, atk);
  measurement::DifferentialCounter attacked_counter(a1, a2);
  trng::ThermalNoiseMonitor monitor2(cfg, paper::f0);
  std::size_t attack_alarms = 0, attack_decisions = 0;
  for (const auto q : attacked_counter.count_windows(n_cycles, wpt * 6 + 1)) {
    trng::OnlineTestDecision d;
    if (monitor2.push_count(q, &d)) {
      ++attack_decisions;
      if (d.alarm) ++attack_alarms;
    }
  }
  EXPECT_GE(attack_decisions, 5u);
  EXPECT_GE(attack_alarms, attack_decisions - 1);
}

}  // namespace
