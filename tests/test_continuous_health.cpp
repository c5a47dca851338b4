// Known-answer + property-test battery for the SP 800-90B §4.4
// continuous health engine (trng/continuous_health.hpp):
//  * cutoff KATs pinned against exact-rational (Python fractions)
//    evaluations of 1 + ceil(-log2(alpha)/H) and critbinom;
//  * alarm-verdict KATs for four fixed streams, pinned exactly
//    (deterministic streams, integer counters — no tolerance needed);
//  * pass-through / chunking / thread-count properties: the taps never
//    perturb the stream, and block scanning is bit-exact vs the scalar
//    reference path;
//  * false-alarm rates vs the engine's own null-model formulas, with CI
//    bands from stat_tolerance.hpp;
//  * detection latency, in bits, for every attacks::injection scenario.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "attacks/injection.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "stat_tolerance.hpp"
#include "stats/special.hpp"
#include "trng/bit_stream.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"

namespace ptrng::trng {
namespace {

class GlobalPoolWidth {
 public:
  explicit GlobalPoolWidth(std::size_t width) {
    ThreadPool::global().resize(width);
  }
  ~GlobalPoolWidth() { ThreadPool::global().resize(0); }
};

/// Ideal iid BitSource for null-model and pass-through tests.
class RngBitSource final : public BitSource {
 public:
  explicit RngBitSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }

 private:
  Xoshiro256pp rng_;
};

/// A source that is stuck at one value — the §4.4.1 canonical failure.
class StuckBitSource final : public BitSource {
 public:
  explicit StuckBitSource(std::uint8_t value) : value_(value & 1u) {}
  std::uint8_t next_bit() override { return value_; }

 private:
  std::uint8_t value_;
};

std::vector<std::uint8_t> biased_bits(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>((rng.next() % 10) != 0);
  return bits;
}

// --- cutoff known answers ------------------------------------------------
//
// Every pinned value below was computed OUTSIDE this codebase with exact
// rational arithmetic (Python fractions; p = the exact rational of the
// double 2^-H), so these KATs catch any float regression in the C++
// tail summation.

TEST(ContinuousHealthCutoffKat, RepetitionCountGrid) {
  // C = 1 + ceil(-log2(alpha) / H), SP 800-90B §4.4.1.
  EXPECT_EQ(repetition_count_cutoff(1.0, 0x1p-20), 21u);
  EXPECT_EQ(repetition_count_cutoff(0.5, 0x1p-20), 41u);
  EXPECT_EQ(repetition_count_cutoff(0.8, 0x1p-20), 26u);
  EXPECT_EQ(repetition_count_cutoff(1.0, 0x1p-30), 31u);
  EXPECT_EQ(repetition_count_cutoff(0.875, 0x1p-30), 36u);
  EXPECT_EQ(repetition_count_cutoff(0.25, 0x1p-40), 161u);
  EXPECT_EQ(repetition_count_cutoff(1.0, 0x1p-7), 8u);
}

TEST(ContinuousHealthCutoffKat, AdaptiveProportionGrid) {
  // C = 1 + critbinom(W, 2^-H, 1 - alpha), SP 800-90B §4.4.2.
  EXPECT_EQ(adaptive_proportion_cutoff(1024, 1.0, 0x1p-20), 589u);
  EXPECT_EQ(adaptive_proportion_cutoff(1024, 0.5, 0x1p-20), 793u);
  EXPECT_EQ(adaptive_proportion_cutoff(512, 1.0, 0x1p-20), 311u);
  EXPECT_EQ(adaptive_proportion_cutoff(256, 1.0, 0x1p-20), 167u);
  EXPECT_EQ(adaptive_proportion_cutoff(1024, 0.8, 0x1p-20), 664u);
  EXPECT_EQ(adaptive_proportion_cutoff(1024, 1.0, 0x1p-7), 552u);
  EXPECT_EQ(adaptive_proportion_cutoff(512, 0.5, 0x1p-10), 394u);
}

/// The log-gamma critbinom the engine used before it stepped the pmf by
/// its ratio recurrence: each term's log pmf from three log_gammas.
std::uint32_t lgamma_proportion_cutoff(std::size_t window, double h_min,
                                       double false_alarm) {
  const double p = std::exp2(-h_min);
  const double dn = static_cast<double>(window);
  double tail = 0.0;
  for (std::size_t j = window + 1; j-- > 0;) {
    const double dk = static_cast<double>(j);
    tail += std::exp(stats::log_gamma(dn + 1.0) - stats::log_gamma(dk + 1.0) -
                     stats::log_gamma(dn - dk + 1.0) + dk * std::log(p) +
                     (dn - dk) * std::log1p(-p));
    if (tail > false_alarm) return static_cast<std::uint32_t>(1 + j);
  }
  return 1;
}

TEST(ContinuousHealthCutoffKat, RecurrenceMatchesLogGammaOnAWideGrid) {
  // 7 windows x 12 entropies x 5 false-alarm rates = 420 cutoffs.
  for (const std::size_t w : {16u, 64u, 256u, 512u, 1024u, 2048u, 4096u})
    for (const double h : {0.02, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6,
                           0.75, 0.9, 1.0})
      for (const double alpha : {0x1p-7, 0x1p-10, 0x1p-20, 0x1p-30, 0x1p-40})
        EXPECT_EQ(adaptive_proportion_cutoff(w, h, alpha),
                  lgamma_proportion_cutoff(w, h, alpha))
            << "W " << w << " h " << h << " alpha " << alpha;
}

TEST(ContinuousHealthCutoffKat, RepetitionCutoffMonotoneInEntropy) {
  // Lower claimed entropy tolerates longer runs.
  std::uint32_t prev = 0;
  for (const double h : {1.0, 0.8, 0.5, 0.25, 0.1}) {
    const std::uint32_t c = repetition_count_cutoff(h, 0x1p-20);
    EXPECT_GT(c, prev) << "h_min " << h;
    prev = c;
  }
}

TEST(ContinuousHealthCutoffKat, RepetitionCutoffMonotoneInAlpha) {
  // A stricter false-alarm budget demands a longer run before failing.
  std::uint32_t prev = 0;
  for (const double alpha : {0x1p-7, 0x1p-10, 0x1p-20, 0x1p-30, 0x1p-40}) {
    const std::uint32_t c = repetition_count_cutoff(0.5, alpha);
    EXPECT_GT(c, prev) << "alpha " << alpha;
    prev = c;
  }
}

TEST(ContinuousHealthCutoffKat, ProportionCutoffBetweenMeanAndWindow) {
  for (const std::size_t w : {256u, 512u, 1024u, 4096u}) {
    for (const double h : {1.0, 0.5, 0.25}) {
      const std::uint32_t c = adaptive_proportion_cutoff(w, h, 0x1p-20);
      const double mean = static_cast<double>(w) * std::pow(2.0, -h);
      EXPECT_GT(static_cast<double>(c), mean) << "W " << w << " h " << h;
      EXPECT_LE(c, w) << "W " << w << " h " << h;
    }
  }
}

TEST(ContinuousHealthCutoffKat, AlarmProbabilityMatchesExactRational) {
  // Exact-rational values (17 significant digits) for the per-window
  // alarm probability q = p P(Bin(W-1,p) >= C-1) + (1-p) P(... 1-p ...).
  EXPECT_NEAR(adaptive_proportion_alarm_probability(1024, 552, 0.5),
              0.007350224674145246, 1e-9 * 0.007350224674145246);
  EXPECT_NEAR(adaptive_proportion_alarm_probability(1024, 600, 0.5),
              2.4768627257406952e-08, 1e-9 * 2.4768627257406952e-08);
  EXPECT_NEAR(adaptive_proportion_alarm_probability(512, 300, 0.52),
              0.0009387745185303166, 1e-9 * 0.0009387745185303166);
}

TEST(ContinuousHealthCutoffKat, RepetitionAlarmRateClosedForm) {
  // (1-p) p^C + p (1-p)^C; at p = 1/2 this is exactly 2^-C.
  EXPECT_DOUBLE_EQ(repetition_count_alarm_rate(8, 0.5), 0x1p-8);
  EXPECT_DOUBLE_EQ(repetition_count_alarm_rate(21, 0.5), 0x1p-21);
  const double p = 0.9;
  EXPECT_DOUBLE_EQ(repetition_count_alarm_rate(5, p),
                   (1.0 - p) * std::pow(p, 5) + p * std::pow(1.0 - p, 5));
}

// --- fixed-stream verdict KATs -------------------------------------------
//
// Deterministic input, integer counters: the verdicts are pinned
// EXACTLY. Default config: h = 0.5, alpha = 2^-20, W = 1024 -> RCT
// cutoff 41, APT cutoff 793.

TEST(ContinuousHealthVerdictKat, StuckAtStreamFailsTotally) {
  HealthEngine engine{ContinuousHealthConfig{}};
  engine.process(std::vector<std::uint8_t>(4096, 0));
  // One latched RCT alarm when the run reaches 41 (bit index 40), one
  // APT alarm per 1024-bit window when matches reach 793 (bit 792 of
  // each window).
  EXPECT_EQ(engine.repetition_alarms(), 1u);
  EXPECT_EQ(engine.proportion_alarms(), 4u);
  EXPECT_EQ(engine.first_alarm_bit(), 40u);
  EXPECT_EQ(engine.state(), HealthState::kTotalFailure);
  EXPECT_EQ(engine.bits_seen(), 4096u);
}

TEST(ContinuousHealthVerdictKat, StuckAtAlarmEventSequence) {
  HealthEngine engine{ContinuousHealthConfig{}};
  std::vector<HealthAlarmEvent> events;
  engine.set_alarm_callback(
      [&](const HealthAlarmEvent& e) { events.push_back(e); });
  engine.process(std::vector<std::uint8_t>(4096, 1));
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].test, HealthAlarmEvent::Test::kRepetitionCount);
  EXPECT_EQ(events[0].bit_index, 40u);
  EXPECT_EQ(events[0].state, HealthState::kIntermittentAlarm);
  // APT fires at bit 792 of every window (windows start at 1024 w).
  const std::size_t apt_bits[] = {792, 1816, 2840, 3864};
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(events[i].test, HealthAlarmEvent::Test::kAdaptiveProportion);
    EXPECT_EQ(events[i].bit_index, apt_bits[i - 1]);
  }
  // The third unrecovered alarm escalates to total failure.
  EXPECT_EQ(events[1].state, HealthState::kIntermittentAlarm);
  EXPECT_EQ(events[2].state, HealthState::kTotalFailure);
  EXPECT_EQ(events[4].state, HealthState::kTotalFailure);
}

TEST(ContinuousHealthVerdictKat, OscillatingStreamStaysNominal) {
  HealthEngine engine{ContinuousHealthConfig{}};
  std::vector<std::uint8_t> osc(4096);
  for (std::size_t i = 0; i < osc.size(); ++i)
    osc[i] = static_cast<std::uint8_t>(i & 1u);
  engine.process(osc);
  // Runs of length 1 and perfectly balanced windows: neither test fires.
  EXPECT_EQ(engine.alarms(), 0u);
  EXPECT_FALSE(engine.alarmed());
  EXPECT_EQ(engine.state(), HealthState::kNominal);
}

TEST(ContinuousHealthVerdictKat, BiasedStreamVerdictPinned) {
  // p(1) = 0.9 from the seeded generator below; both tests hammer. The
  // counts are a regression pin of the full engine (tests + latching +
  // state machine) on a fixed 100 kbit stream.
  HealthEngine engine{ContinuousHealthConfig{}};
  engine.process(biased_bits(100'000, 0xb1a5));
  EXPECT_EQ(engine.repetition_alarms(), 156u);
  EXPECT_EQ(engine.proportion_alarms(), 93u);
  EXPECT_EQ(engine.first_alarm_bit(), 872u);
  EXPECT_EQ(engine.state(), HealthState::kTotalFailure);
}

TEST(ContinuousHealthVerdictKat, HealthyIidStreamStaysNominal) {
  // 100 kbits of fair iid bits at alpha = 2^-20: expected alarms
  // ~ 1e5 * 2^-41 (RCT) + 97 * 2^-20 (APT) << 1.
  HealthEngine engine{ContinuousHealthConfig{}};
  RngBitSource src(0xfa12);
  engine.process(src.generate_bits(100'000));
  EXPECT_EQ(engine.alarms(), 0u);
  EXPECT_EQ(engine.state(), HealthState::kNominal);
}

// --- pass-through and bit-exactness properties ---------------------------

TEST(ContinuousHealthPassThrough, RawTapDoesNotPerturbPipelineOutput) {
  for (const std::size_t width : {1u, 2u, 8u}) {
    GlobalPoolWidth pool(width);
    const std::size_t n = 30'000;
    std::vector<std::uint8_t> with_tap(n), without_tap(n);

    RngBitSource src_a(99);
    HealthEngine engine{ContinuousHealthConfig{}};
    Pipeline tapped(src_a, 4096);
    tapped.attach_tap(engine);
    tapped.add_transform(std::make_unique<XorDecimateTransform>(2))
        .add_transform(std::make_unique<VonNeumannTransform>());
    tapped.generate_into(with_tap);

    RngBitSource src_b(99);
    Pipeline plain(src_b, 4096);
    plain.add_transform(std::make_unique<XorDecimateTransform>(2))
        .add_transform(std::make_unique<VonNeumannTransform>());
    plain.generate_into(without_tap);

    EXPECT_EQ(with_tap, without_tap) << "width " << width;
    // The raw tap sees every raw bit the pipeline pulled.
    EXPECT_EQ(engine.bits_seen(), tapped.raw_bits()) << "width " << width;
    EXPECT_GT(engine.bits_seen(), n) << "width " << width;
  }
}

TEST(ContinuousHealthPassThrough, TapTransformIsIdentityAnywhereInChain) {
  // Mid-chain tapping is pipeline nesting: the inner pipeline decimates,
  // and the outer pipeline's tap observes the decimated stream as its
  // raw stream before von Neumann runs.
  const std::size_t n = 20'000;
  std::vector<std::uint8_t> with_tap(n), without_tap(n);

  RngBitSource src_a(123);
  HealthEngine engine{ContinuousHealthConfig{}};
  Pipeline inner(src_a, 1024);
  inner.add_transform(std::make_unique<XorDecimateTransform>(2));
  Pipeline outer(inner, 1024);
  outer.attach_tap(engine).add_transform(
      std::make_unique<VonNeumannTransform>());
  outer.generate_into(with_tap);

  RngBitSource src_b(123);
  Pipeline plain(src_b, 1024);
  plain.add_transform(std::make_unique<XorDecimateTransform>(2))
      .add_transform(std::make_unique<VonNeumannTransform>());
  plain.generate_into(without_tap);

  EXPECT_EQ(with_tap, without_tap);
  // Mid-chain placement: the tap saw every DECIMATED bit the outer
  // pipeline pulled.
  EXPECT_EQ(engine.bits_seen(), outer.raw_bits());
  EXPECT_EQ(outer.raw_bits(), inner.raw_bits() / 2);
}

TEST(ContinuousHealthPassThrough, ChunkedPushMatchesWholeBlock) {
  // Alarm counters, indices and state must not depend on push
  // granularity (the word path only engages away from chunk edges).
  const auto bits = biased_bits(50'000, 0xc0ffee);
  HealthEngine whole{ContinuousHealthConfig{}};
  whole.process(bits);

  Xoshiro256pp split_rng(0x5eed);
  for (int rep = 0; rep < 5; ++rep) {
    HealthEngine chunked{ContinuousHealthConfig{}};
    std::size_t pos = 0;
    while (pos < bits.size()) {
      const std::size_t take = std::min<std::size_t>(
          bits.size() - pos, 1 + split_rng.next() % 777);
      chunked.process(
          std::span<const std::uint8_t>(bits.data() + pos, take));
      pos += take;
    }
    EXPECT_EQ(chunked.repetition_alarms(), whole.repetition_alarms());
    EXPECT_EQ(chunked.proportion_alarms(), whole.proportion_alarms());
    EXPECT_EQ(chunked.first_alarm_bit(), whole.first_alarm_bit());
    EXPECT_EQ(chunked.state(), whole.state());
    EXPECT_EQ(chunked.bits_seen(), whole.bits_seen());
  }
}

TEST(ContinuousHealthPassThrough, BlockPathMatchesScalarPath) {
  // Stress stream mixing long same-value dwells (word fast path must
  // bail out at exactly the right bit) with random segments.
  std::vector<std::uint8_t> bits;
  Xoshiro256pp rng(0xdead);
  while (bits.size() < 60'000) {
    const std::size_t dwell = 1 + rng.next() % 97;
    const std::uint8_t v = static_cast<std::uint8_t>(rng.next() & 1u);
    for (std::size_t i = 0; i < dwell; ++i) bits.push_back(v);
  }

  HealthEngine block{ContinuousHealthConfig{}};
  std::vector<HealthAlarmEvent> block_events;
  block.set_alarm_callback(
      [&](const HealthAlarmEvent& e) { block_events.push_back(e); });
  block.process(bits);

  HealthEngine scalar{ContinuousHealthConfig{}};
  std::vector<HealthAlarmEvent> scalar_events;
  scalar.set_alarm_callback(
      [&](const HealthAlarmEvent& e) { scalar_events.push_back(e); });
  for (const std::uint8_t b : bits) scalar.process_bit(b);

  EXPECT_EQ(block.repetition_alarms(), scalar.repetition_alarms());
  EXPECT_EQ(block.proportion_alarms(), scalar.proportion_alarms());
  EXPECT_EQ(block.first_alarm_bit(), scalar.first_alarm_bit());
  EXPECT_EQ(block.state(), scalar.state());
  ASSERT_EQ(block_events.size(), scalar_events.size());
  for (std::size_t i = 0; i < block_events.size(); ++i) {
    EXPECT_EQ(block_events[i].test, scalar_events[i].test) << "event " << i;
    EXPECT_EQ(block_events[i].bit_index, scalar_events[i].bit_index)
        << "event " << i;
    EXPECT_EQ(block_events[i].state, scalar_events[i].state) << "event " << i;
  }
}

TEST(ContinuousHealthPassThrough, EroPipelineTapThreadInvariant) {
  // The engine taps the raw stream, which is bit-identical at any pool
  // width — so must be every health counter.
  std::vector<std::size_t> rct, apt, seen;
  for (const std::size_t width : {1u, 2u, 8u}) {
    GlobalPoolWidth pool(width);
    auto source = paper_trng(200, 0x600d);
    HealthEngine engine{ContinuousHealthConfig{}};
    Pipeline pipe(source, 4096);
    pipe.attach_tap(engine);
    std::vector<std::uint8_t> out(100'000);
    pipe.generate_into(out);
    rct.push_back(engine.repetition_alarms());
    apt.push_back(engine.proportion_alarms());
    seen.push_back(engine.bits_seen());
  }
  EXPECT_EQ(rct[0], rct[1]);
  EXPECT_EQ(rct[0], rct[2]);
  EXPECT_EQ(apt[0], apt[1]);
  EXPECT_EQ(apt[0], apt[2]);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
}

// --- tap mechanism -------------------------------------------------------

TEST(PipelineTaps, MultipleTapsSeeTheSameRawStream) {
  // A health engine and a raw recorder share the one tap mechanism; both
  // observe every raw bit, and the recorder's copy IS the raw stream.
  RngBitSource src_a(0x7a9), src_b(0x7a9);
  HealthEngine engine{ContinuousHealthConfig{}};
  RawRecorderTap recorder(/*max_bits=*/1 << 20);
  Pipeline pipe(src_a, 2048);
  pipe.attach_tap(engine);
  pipe.attach_tap(recorder);
  EXPECT_EQ(pipe.tap_count(), 2u);
  std::vector<std::uint8_t> out(40'000);
  pipe.generate_into(out);

  EXPECT_EQ(engine.bits_seen(), pipe.raw_bits());
  EXPECT_EQ(recorder.bits_seen(), pipe.raw_bits());
  const auto raw = src_b.generate_bits(pipe.raw_bits());
  EXPECT_EQ(recorder.bits(), raw);
}

TEST(PipelineTaps, AttachIsIdempotentAndDetachStopsObservation) {
  RngBitSource src(0x7aa);
  HealthEngine engine{ContinuousHealthConfig{}};
  Pipeline pipe(src, 1024);
  pipe.attach_tap(engine);
  pipe.attach_tap(engine);  // duplicate attach must not double-observe
  EXPECT_EQ(pipe.tap_count(), 1u);
  std::vector<std::uint8_t> out(8'000);
  pipe.generate_into(out);
  const auto seen = engine.bits_seen();
  EXPECT_EQ(seen, pipe.raw_bits());

  pipe.detach_tap(engine);
  EXPECT_EQ(pipe.tap_count(), 0u);
  pipe.generate_into(out);
  EXPECT_EQ(engine.bits_seen(), seen);  // no longer observing
}

TEST(PipelineTaps, RecorderCapStopsRecordingNotObservation) {
  RngBitSource src(0x7ac);
  RawRecorderTap recorder(/*max_bits=*/1000);
  Pipeline pipe(src, 512);
  pipe.attach_tap(recorder);
  std::vector<std::uint8_t> out(10'000);
  pipe.generate_into(out);
  EXPECT_EQ(recorder.bits().size(), 1000u);
  EXPECT_EQ(recorder.bits_seen(), pipe.raw_bits());
}

// --- state machine -------------------------------------------------------

TEST(ContinuousHealthStateMachine, RecoversAfterHealthyBits) {
  ContinuousHealthConfig cfg;
  cfg.recovery_bits = 2048;
  HealthEngine engine{cfg};
  // One offending run (41 zeros) -> intermittent alarm.
  engine.process(std::vector<std::uint8_t>(41, 0));
  EXPECT_EQ(engine.state(), HealthState::kIntermittentAlarm);
  EXPECT_TRUE(engine.alarmed());
  // recovery_bits of healthy alternation drop the state back to
  // nominal; diagnostics survive.
  std::vector<std::uint8_t> osc(2048 + 64);
  for (std::size_t i = 0; i < osc.size(); ++i)
    osc[i] = static_cast<std::uint8_t>(i & 1u);
  engine.process(osc);
  EXPECT_EQ(engine.state(), HealthState::kNominal);
  EXPECT_EQ(engine.alarms(), 1u);
  EXPECT_TRUE(engine.alarmed());
}

TEST(ContinuousHealthStateMachine, EscalatesAndAcknowledges) {
  ContinuousHealthConfig cfg;
  cfg.total_failure_alarms = 2;
  HealthEngine engine{cfg};
  engine.process(std::vector<std::uint8_t>(2048, 1));
  // RCT at bit 40 + APT at bit 792 = 2 unrecovered alarms -> failure.
  EXPECT_EQ(engine.state(), HealthState::kTotalFailure);
  const std::size_t alarms_at_failure = engine.alarms();
  engine.acknowledge_failure();
  EXPECT_EQ(engine.state(), HealthState::kNominal);
  // Counters are diagnostics: acknowledged, not erased.
  EXPECT_EQ(engine.alarms(), alarms_at_failure);
  EXPECT_TRUE(engine.alarmed());
  // The tests were re-primed: a fresh healthy stream stays nominal.
  std::vector<std::uint8_t> osc(4096);
  for (std::size_t i = 0; i < osc.size(); ++i)
    osc[i] = static_cast<std::uint8_t>(i & 1u);
  engine.process(osc);
  EXPECT_EQ(engine.state(), HealthState::kNominal);
  EXPECT_EQ(engine.alarms(), alarms_at_failure);
}

TEST(ContinuousHealthStateMachine, MeasureLatencyOnStuckSource) {
  // A stuck source trips the RCT on the bit where the run reaches the
  // cutoff: latency == cutoff bits exactly.
  StuckBitSource stuck(1);
  HealthEngine engine{ContinuousHealthConfig{}};
  const auto lat = measure_detection_latency(stuck, engine, 100'000);
  ASSERT_TRUE(lat.detected);
  EXPECT_EQ(lat.bits, repetition_count_cutoff(0.5, 0x1p-20));
}

TEST(ContinuousHealthStateMachine, MeasureLatencyHealthySourceTimesOut) {
  RngBitSource healthy(0x900d);
  HealthEngine engine{ContinuousHealthConfig{}};
  const auto lat = measure_detection_latency(healthy, engine, 50'000);
  EXPECT_FALSE(lat.detected);
  EXPECT_EQ(lat.bits, 0u);
  EXPECT_EQ(engine.alarms(), 0u);
}

// --- false-alarm rates vs the null model ---------------------------------

TEST(ContinuousHealthFalseAlarm, RepetitionRateMatchesNullOnIdealSource) {
  // Loose config (h = 1, alpha = 2^-7 -> RCT cutoff 8) so 1 Mbit of
  // fair iid bits yields thousands of alarms; the count must land in
  // the z = 5 band around n * rate (iid source: no correlation
  // inflation needed).
  ContinuousHealthConfig cfg;
  cfg.h_min = 1.0;
  cfg.false_alarm = 0x1p-7;
  const std::size_t n = 1'000'000;
  const double rate = repetition_count_alarm_rate(8, 0.5);
  const double tol = testing::count_tol(n, rate);
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    HealthEngine engine{cfg};
    RngBitSource src(seed);
    std::vector<std::uint8_t> block(4096);
    for (std::size_t i = 0; i < n; i += block.size()) {
      src.generate_into(block);
      engine.process(block);
    }
    const double expected = static_cast<double>(n) * rate;
    EXPECT_NEAR(static_cast<double>(engine.repetition_alarms()), expected,
                tol)
        << "seed " << seed;
  }
}

TEST(ContinuousHealthFalseAlarm, ProportionRateMatchesNullOnIdealSource) {
  // Same config: APT cutoff 552 over W = 1024, per-window alarm
  // probability q from the engine's own exact formula.
  ContinuousHealthConfig cfg;
  cfg.h_min = 1.0;
  cfg.false_alarm = 0x1p-7;
  const std::size_t n = 1'000'000;
  const std::size_t n_windows = n / 1024;
  const double q = adaptive_proportion_alarm_probability(1024, 552, 0.5);
  const double tol = testing::count_tol(n_windows, q);
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    HealthEngine engine{cfg};
    RngBitSource src(seed);
    std::vector<std::uint8_t> block(4096);
    for (std::size_t i = 0; i < n; i += block.size()) {
      src.generate_into(block);
      engine.process(block);
    }
    const double expected = static_cast<double>(n_windows) * q;
    EXPECT_NEAR(static_cast<double>(engine.proportion_alarms()), expected,
                tol)
        << "seed " << seed;
  }
}

TEST(ContinuousHealthFalseAlarm, HealthyEroStaysWithinDesignBudget) {
  // The production question: does a HEALTHY paper-calibrated eRO stream
  // (divider 200, where per-bit conditional min-entropy clears the
  // h = 0.5 target) keep its alarm rate inside the configured
  // false-alarm budget over >= 1 Mbit? Expected alarms under the design
  // alpha: ~ n/2 runs * 2^-20 (RCT) + (n/1024) windows * 2^-20 (APT)
  // ~ 0.48; the one-sided z = 5 band around that Poisson-scale count is
  // count_tol of the run/window trials.
  const std::size_t n = 1'000'000;
  auto source = paper_trng(200, 0x600d);
  HealthEngine engine{ContinuousHealthConfig{}};
  std::vector<std::uint8_t> block(4096);
  for (std::size_t i = 0; i < n; i += block.size()) {
    source.generate_into(block);
    engine.process(block);
  }
  const double alpha = engine.config().false_alarm;
  const double expected =
      static_cast<double>(n) / 2.0 * alpha +
      static_cast<double>(n / 1024) * alpha;
  const double band =
      expected + testing::count_tol(n / 2 + n / 1024, alpha);
  EXPECT_LE(static_cast<double>(engine.alarms()), band);
  EXPECT_EQ(engine.state(), HealthState::kNominal);
  EXPECT_GE(engine.bits_seen(), n);
}

// --- detection latency for the injection scenarios -----------------------

/// Per-scenario latency budgets in bits, same order as
/// attacks::injection_scenarios(). Measured headroom (default seed):
/// freq-lock-0.98 detects at 41 (the RCT cutoff — the stream goes
/// static immediately), em-partial-lock-0.995 at ~1161 (first long
/// dwell of the residual beat), total-lock-1.0 at 33788 (APT window
/// imbalance of the zero-noise deterministic stream).
constexpr std::size_t kLatencyBudgets[] = {64, 2048, 40960};

TEST(ContinuousHealthDetection, EveryScenarioDetectsWithinBudget) {
  const auto scenarios = attacks::injection_scenarios();
  ASSERT_EQ(scenarios.size(), std::size(kLatencyBudgets));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& sc = scenarios[i];
    auto victim = attacks::make_attacked_trng(sc.attack, sc.divider);
    HealthEngine engine{ContinuousHealthConfig{}};
    const auto lat =
        measure_detection_latency(victim, engine, 2 * kLatencyBudgets[i]);
    ASSERT_TRUE(lat.detected) << sc.name;
    EXPECT_LE(lat.bits, kLatencyBudgets[i]) << sc.name;
    // Nothing can alarm before the RCT cutoff-length prefix.
    EXPECT_GE(lat.bits, repetition_count_cutoff(0.5, 0x1p-20)) << sc.name;
  }
}

TEST(ContinuousHealthDetection, LatencyInvariantAcrossThreadCounts) {
  const auto scenarios = attacks::injection_scenarios();
  for (std::size_t i = 0; i < 2; ++i) {  // the two fast scenarios
    const auto& sc = scenarios[i];
    std::vector<std::size_t> latencies;
    for (const std::size_t width : {1u, 2u, 8u}) {
      GlobalPoolWidth pool(width);
      auto victim = attacks::make_attacked_trng(sc.attack, sc.divider);
      HealthEngine engine{ContinuousHealthConfig{}};
      const auto lat =
          measure_detection_latency(victim, engine, 2 * kLatencyBudgets[i]);
      ASSERT_TRUE(lat.detected) << sc.name << " width " << width;
      latencies.push_back(lat.bits);
    }
    EXPECT_EQ(latencies[0], latencies[1]) << sc.name;
    EXPECT_EQ(latencies[0], latencies[2]) << sc.name;
  }
}

TEST(ContinuousHealthDetection, LatencyInvariantAcrossBlockSizes) {
  // Alarms fire at exact bit indices, so the measured latency cannot
  // depend on the pull granularity.
  const auto& sc = attacks::injection_scenarios()[1];
  std::vector<std::size_t> latencies;
  for (const std::size_t block_bits : {333u, 1024u, 4096u}) {
    auto victim = attacks::make_attacked_trng(sc.attack, sc.divider);
    HealthEngine engine{ContinuousHealthConfig{}};
    const auto lat = measure_detection_latency(victim, engine,
                                               2 * kLatencyBudgets[1],
                                               block_bits);
    ASSERT_TRUE(lat.detected) << "block " << block_bits;
    latencies.push_back(lat.bits);
  }
  EXPECT_EQ(latencies[0], latencies[1]);
  EXPECT_EQ(latencies[0], latencies[2]);
}

TEST(ContinuousHealthDetection, StrongLockBeatsPartialLock) {
  // Stronger entrainment must not detect SLOWER: the ordering of the
  // scenario latencies is part of the physical story.
  const auto scenarios = attacks::injection_scenarios();
  std::vector<std::size_t> latencies;
  for (std::size_t i = 0; i < 2; ++i) {
    auto victim = attacks::make_attacked_trng(scenarios[i].attack,
                                              scenarios[i].divider);
    HealthEngine engine{ContinuousHealthConfig{}};
    const auto lat = measure_detection_latency(victim, engine,
                                               2 * kLatencyBudgets[i]);
    ASSERT_TRUE(lat.detected);
    latencies.push_back(lat.bits);
  }
  EXPECT_LT(latencies[0], latencies[1]);
}

TEST(ContinuousHealthDetection, UnattackedVictimStaysQuiet) {
  // Control: the same construction with a null attack does not alarm
  // within the largest scenario budget.
  attacks::InjectionAttack null_attack;
  null_attack.coupling = 0.0;
  null_attack.modulation_depth = 0.0;
  auto victim = attacks::make_attacked_trng(null_attack, 200);
  HealthEngine engine{ContinuousHealthConfig{}};
  const auto lat = measure_detection_latency(victim, engine, 40'960);
  EXPECT_FALSE(lat.detected);
}

}  // namespace
}  // namespace ptrng::trng
