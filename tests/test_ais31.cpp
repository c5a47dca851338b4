// Unit tests for the AIS31 battery: ideal input passes every test,
// defective inputs fail the right test, threshold edge behaviour.
#include <gtest/gtest.h>

#include "ignore_result.hpp"

#include <ostream>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trng/ais31.hpp"

namespace {

using ptrng::test::ignore_result;

using namespace ptrng;
using namespace ptrng::trng::ais31;

std::vector<std::uint8_t> ideal_bits(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1u);
  return bits;
}

std::vector<std::uint8_t> biased_bits(std::size_t n, double p,
                                      std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.uniform() < p ? 1 : 0;
  return bits;
}

TEST(T0, IdealPassesConstantFails) {
  const auto good = ideal_bits((1u << 16) * 48, 1);
  EXPECT_TRUE(t0_disjointness(good).passed);
  const std::vector<std::uint8_t> constant((1u << 16) * 48, 1);
  EXPECT_FALSE(t0_disjointness(constant).passed);
}

TEST(T1, MonobitBounds) {
  EXPECT_TRUE(t1_monobit(ideal_bits(20000, 2)).passed);
  EXPECT_FALSE(t1_monobit(biased_bits(20000, 0.4, 3)).passed);
  const std::vector<std::uint8_t> zeros(20000, 0);
  const auto res = t1_monobit(zeros);
  EXPECT_FALSE(res.passed);
  EXPECT_DOUBLE_EQ(res.statistic, 0.0);
}

TEST(QuickBattery, IdealPassesBiasedFails) {
  ASSERT_EQ(quick_battery_bits(), 20000u);
  const auto good = quick_battery(ideal_bits(quick_battery_bits(), 7));
  EXPECT_TRUE(good.passed);
  ASSERT_EQ(good.outcomes.size(), 4u);  // T1-T4, procedure order
  EXPECT_EQ(good.outcomes[0].name, t1_monobit(ideal_bits(20000, 7)).name);
  const auto bad = quick_battery(biased_bits(quick_battery_bits(), 0.4, 8));
  EXPECT_FALSE(bad.passed);
  EXPECT_FALSE(bad.failures.empty());
}

TEST(QuickBattery, UsesOnlyTheFirstBlock) {
  // Extra trailing garbage must not change the verdict: the battery
  // reads exactly quick_battery_bits().
  auto bits = ideal_bits(quick_battery_bits(), 9);
  const auto base = quick_battery(bits);
  bits.insert(bits.end(), 5000, std::uint8_t{1});
  const auto extended = quick_battery(bits);
  EXPECT_EQ(base.passed, extended.passed);
  for (std::size_t i = 0; i < base.outcomes.size(); ++i)
    EXPECT_DOUBLE_EQ(base.outcomes[i].statistic,
                     extended.outcomes[i].statistic);
}

TEST(T2, PokerDetectsPatterns) {
  EXPECT_TRUE(t2_poker(ideal_bits(20000, 4)).passed);
  // Repeating nibble pattern: poker explodes.
  std::vector<std::uint8_t> patterned(20000);
  for (std::size_t i = 0; i < patterned.size(); ++i)
    patterned[i] = (i % 4 == 0) ? 1 : 0;
  EXPECT_FALSE(t2_poker(patterned).passed);
}

TEST(T2, TooUniformAlsoFails) {
  // Perfectly equidistributed nibbles: X = 0 < 1.03 must FAIL (the
  // two-sided AIS31 bound catches "too good" data).
  std::vector<std::uint8_t> bits;
  bits.reserve(20000);
  for (std::size_t rep = 0; rep < 5000 / 16 + 1 && bits.size() < 20000;
       ++rep) {
    for (std::size_t v = 0; v < 16 && bits.size() < 20000; ++v) {
      for (std::size_t k = 0; k < 4; ++k)
        bits.push_back(static_cast<std::uint8_t>((v >> (3 - k)) & 1u));
    }
  }
  EXPECT_FALSE(t2_poker(bits).passed);
}

TEST(T3, RunsDistribution) {
  EXPECT_TRUE(t3_runs(ideal_bits(20000, 5)).passed);
  // Alternating bits: all runs have length 1 -> fails.
  std::vector<std::uint8_t> alt(20000);
  for (std::size_t i = 0; i < alt.size(); ++i)
    alt[i] = static_cast<std::uint8_t>(i & 1u);
  EXPECT_FALSE(t3_runs(alt).passed);
}

TEST(T4, LongRun) {
  EXPECT_TRUE(t4_long_run(ideal_bits(20000, 6)).passed);
  auto bits = ideal_bits(20000, 7);
  for (std::size_t i = 5000; i < 5040; ++i) bits[i] = 1;  // run of 40
  EXPECT_FALSE(t4_long_run(bits).passed);
}

TEST(T5, AutocorrelationDetectsPeriodicity) {
  EXPECT_TRUE(t5_autocorrelation(ideal_bits(20000, 8)).passed);
  // Strong correlation at lag 7: b_{i+7} = b_i.
  std::vector<std::uint8_t> per(20000);
  const auto seedbits = ideal_bits(7, 9);
  for (std::size_t i = 0; i < per.size(); ++i)
    per[i] = seedbits[i % 7];
  EXPECT_FALSE(t5_autocorrelation(per).passed);
}

TEST(T6, UniformDistribution) {
  EXPECT_TRUE(t6_uniform(ideal_bits(100000, 10)).passed);
  EXPECT_FALSE(t6_uniform(biased_bits(100000, 0.45, 11)).passed);
}

TEST(T7, TransitionHomogeneity) {
  EXPECT_TRUE(t7_homogeneity(ideal_bits(100001, 12)).passed);
  // Markov chain with asymmetric transitions fails homogeneity.
  Xoshiro256pp rng(13);
  std::vector<std::uint8_t> markov(100001);
  std::uint8_t s = 0;
  for (auto& b : markov) {
    const double p_one = (s == 0) ? 0.45 : 0.55;  // depends on state
    s = rng.uniform() < p_one ? 1 : 0;
    b = s;
  }
  EXPECT_FALSE(t7_homogeneity(markov).passed);
}

TEST(T8, EntropyEstimator) {
  const std::size_t need = (2560 + 256000) * 8;
  EXPECT_TRUE(t8_entropy(ideal_bits(need, 14)).passed);
  EXPECT_FALSE(t8_entropy(biased_bits(need, 0.35, 15)).passed);
}

TEST(ProcedureA, IdealInputPasses) {
  const auto bits = ideal_bits(procedure_a_bits(2), 16);
  const auto res = procedure_a(bits, 2);
  EXPECT_TRUE(res.passed) << res.outcomes[res.failures.empty()
                                              ? 0
                                              : res.failures[0]]
                                 .detail;
  EXPECT_EQ(res.outcomes.size(), 1u + 2u * 5u);
  EXPECT_TRUE(res.failures.empty());
}

TEST(ProcedureA, BiasedInputFailsWithFailureIndices) {
  const auto bits = biased_bits(procedure_a_bits(1), 0.42, 17);
  const auto res = procedure_a(bits, 1);
  EXPECT_FALSE(res.passed);
  EXPECT_FALSE(res.failures.empty());
  for (auto idx : res.failures) EXPECT_FALSE(res.outcomes[idx].passed);
}

TEST(ProcedureB, IdealInputPasses) {
  const auto bits = ideal_bits(procedure_b_bits(), 18);
  const auto res = procedure_b(bits);
  EXPECT_TRUE(res.passed);
  EXPECT_EQ(res.outcomes.size(), 3u);
}

TEST(ProcedureB, BiasedInputFails) {
  const auto bits = biased_bits(procedure_b_bits(), 0.4, 19);
  const auto res = procedure_b(bits);
  EXPECT_FALSE(res.passed);
}

TEST(ProcedureA, ParallelRoundsIdenticalForAnyThreadCount) {
  // T0 plus each round's T1-T5 fan out one task per round into fixed
  // outcome slots; verdicts, statistics, detail strings, and failure
  // indices must not depend on the pool width.
  const auto bits = biased_bits(procedure_a_bits(3), 0.47, 23);
  auto run = [&](std::size_t width) {
    ThreadPool::global().resize(width);
    auto res = procedure_a(bits, 3);
    ThreadPool::global().resize(0);
    return res;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(one.outcomes.size(), 1u + 3u * 5u);
  for (const auto* other : {&two, &eight}) {
    EXPECT_EQ(one.passed, other->passed);
    EXPECT_EQ(one.failures, other->failures);
    ASSERT_EQ(one.outcomes.size(), other->outcomes.size());
    for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
      EXPECT_EQ(one.outcomes[i].name, other->outcomes[i].name);
      EXPECT_EQ(one.outcomes[i].passed, other->outcomes[i].passed);
      EXPECT_EQ(one.outcomes[i].statistic, other->outcomes[i].statistic);
      EXPECT_EQ(one.outcomes[i].detail, other->outcomes[i].detail);
    }
  }
}

TEST(ProcedureA, OutcomeSlotsFollowRoundOrder) {
  // The parallel port fills fixed slots: T0 first, then T1..T5 per
  // round in order — the exact layout of the old sequential loop.
  const auto bits = ideal_bits(procedure_a_bits(2), 24);
  const auto res = procedure_a(bits, 2);
  ASSERT_EQ(res.outcomes.size(), 11u);
  EXPECT_EQ(res.outcomes[0].name, "T0 disjointness");
  const char* expected[] = {"T1 monobit", "T2 poker", "T3 runs",
                            "T4 long run", "T5 autocorrelation"};
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t t = 0; t < 5; ++t)
      EXPECT_EQ(res.outcomes[1 + r * 5 + t].name, expected[t])
          << "round " << r;
}

TEST(ProcedureB, ParallelBatteryIdenticalForAnyThreadCount) {
  // T6/T7/T8 fan out one per task into fixed outcome slots; verdicts,
  // statistics, and detail strings must not depend on the pool width.
  const auto bits = ideal_bits(procedure_b_bits(), 22);
  auto run = [&](std::size_t width) {
    ThreadPool::global().resize(width);
    auto res = procedure_b(bits);
    ThreadPool::global().resize(0);
    return res;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(one.outcomes.size(), 3u);
  for (const auto* other : {&two, &eight}) {
    EXPECT_EQ(one.passed, other->passed);
    EXPECT_EQ(one.failures, other->failures);
    ASSERT_EQ(one.outcomes.size(), other->outcomes.size());
    for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
      EXPECT_EQ(one.outcomes[i].name, other->outcomes[i].name);
      EXPECT_EQ(one.outcomes[i].passed, other->outcomes[i].passed);
      EXPECT_EQ(one.outcomes[i].statistic, other->outcomes[i].statistic);
      EXPECT_EQ(one.outcomes[i].detail, other->outcomes[i].detail);
    }
  }
}

// Known-answer tests: fixed seeded bitstreams with pinned verdicts AND
// per-test statistics, so a refactor of the battery (like the parallel
// port) cannot silently change what procedure_b computes. The pins come
// straight from the scalar t6/t7/t8 test functions, which the battery
// dispatches unchanged; Xoshiro256pp is fully specified, so the streams
// are identical on every platform. T6/T7 statistics are pure counting
// arithmetic (exactly reproducible); T8 goes through log2, so it gets a
// 1e-9 pad for libm differences.
struct ProcedureBKat {
  std::uint64_t seed;
  double bias_p;  // 0.5 => unbiased ideal stream
  bool passed;
  bool t6_passed, t7_passed, t8_passed;
  double t6_stat, t7_stat, t8_stat;
};

// Prints a case by its seed. gtest_discover_tests names each ctest case
// by this print (.../seed_0xA15); without it gtest dumps the struct's
// bytes, padding included, so the names changed from build to build.
void PrintTo(const ProcedureBKat& kat, std::ostream* os) {
  *os << "seed_0x" << std::uppercase << std::hex << kat.seed;
}

class ProcedureBKatTest : public ::testing::TestWithParam<ProcedureBKat> {};

TEST_P(ProcedureBKatTest, PinnedVerdictsAndStatistics) {
  const auto& kat = GetParam();
  const auto bits =
      kat.bias_p == 0.5
          ? ideal_bits(procedure_b_bits(), kat.seed)
          : biased_bits(procedure_b_bits(), kat.bias_p, kat.seed);
  const auto res = procedure_b(bits);
  EXPECT_EQ(res.passed, kat.passed);
  ASSERT_EQ(res.outcomes.size(), 3u);
  EXPECT_EQ(res.outcomes[0].passed, kat.t6_passed);
  EXPECT_EQ(res.outcomes[1].passed, kat.t7_passed);
  EXPECT_EQ(res.outcomes[2].passed, kat.t8_passed);
  EXPECT_DOUBLE_EQ(res.outcomes[0].statistic, kat.t6_stat);
  EXPECT_DOUBLE_EQ(res.outcomes[1].statistic, kat.t7_stat);
  EXPECT_NEAR(res.outcomes[2].statistic, kat.t8_stat, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FixedStreams, ProcedureBKatTest,
    ::testing::Values(
        ProcedureBKat{0xA15, 0.5, true, true, true, true,
                      0.50273999999999996, 0.0044069379432975404,
                      8.0019252825069671},
        ProcedureBKat{0xB0B, 0.5, true, true, true, true,
                      0.49752000000000002, 0.0081058549925662332,
                      8.0023423067588642},
        ProcedureBKat{0xBAD, 0.45, false, false, true, false,
                      0.45029999999999998, 1.3222589203348414,
                      7.9412843224026135},
        ProcedureBKat{0xC0DE, 0.40, false, false, true, false,
                      0.39676, 1.0283865282307292, 7.7649168767544845}));

TEST(Procedures, SizeRequirementsEnforced) {
  const auto tiny = ideal_bits(1000, 20);
  EXPECT_THROW(ignore_result(procedure_a(tiny, 1)), ContractViolation);
  EXPECT_THROW(ignore_result(procedure_b(tiny)), ContractViolation);
  EXPECT_THROW(ignore_result(t1_monobit(tiny)), ContractViolation);
}

class BiasSweep : public ::testing::TestWithParam<double> {};

TEST_P(BiasSweep, T1PowerCurve) {
  // Monobit should pass near 0.5 and fail far away; the 20000-bit T1
  // bound corresponds to |p - 0.5| ~ 0.0173 at ~5 sigma.
  const double p = GetParam();
  const auto bits = biased_bits(20000, p, 21 + static_cast<std::uint64_t>(p * 1000));
  const bool passed = t1_monobit(bits).passed;
  if (std::abs(p - 0.5) < 0.005) {
    EXPECT_TRUE(passed) << p;
  }
  if (std::abs(p - 0.5) > 0.03) {
    EXPECT_FALSE(passed) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Biases, BiasSweep,
                         ::testing::Values(0.46, 0.48, 0.5, 0.52, 0.54));

}  // namespace
