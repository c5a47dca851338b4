// SIMD layer differential suite (docs/ARCHITECTURE.md §5 "SIMD rules"):
// every vector kernel must be bit-identical to its scalar fallback. The
// vector-op sanity tests exercise common/simd.hpp primitives directly
// (skipped when active() is false — e.g. forced-scalar CI or a host
// without the compiled ISA); the differential tests compare full
// generator/measurement paths under ScopedForceScalar and always run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/ziggurat.hpp"
#include "measurement/counter.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/ring_oscillator.hpp"

namespace {

using namespace ptrng;

// ---------------------------------------------------------------------
// Vector-op sanity. The helpers carry per-function ISA targeting, so
// they are exercised through PTRNG_SIMD_TARGET wrappers and only when
// active() says the host may execute them.
// ---------------------------------------------------------------------

PTRNG_SIMD_TARGET void run_transpose(const double* in, double* out) {
  simd::f64x4 a = simd::load4(in);
  simd::f64x4 b = simd::load4(in + 4);
  simd::f64x4 c = simd::load4(in + 8);
  simd::f64x4 d = simd::load4(in + 12);
  simd::transpose4(a, b, c, d);
  simd::store4(out, a);
  simd::store4(out + 4, b);
  simd::store4(out + 8, c);
  simd::store4(out + 12, d);
}

PTRNG_SIMD_TARGET int run_lt_mask(const double* a, const double* b) {
  return simd::lt_mask(simd::load4(a), simd::load4(b));
}

PTRNG_SIMD_TARGET int run_lt_mask_i64(const std::uint64_t* a,
                                      const std::uint64_t* b) {
  return simd::lt_mask_i64(simd::load4(a), simd::load4(b));
}

PTRNG_SIMD_TARGET void run_u52_to_f64(const std::uint64_t* in, double* out) {
  simd::store4(out, simd::u52_to_f64(simd::load4(in)));
}

PTRNG_SIMD_TARGET void run_rotl23(const std::uint64_t* in,
                                  std::uint64_t* out) {
  simd::store4(out, simd::rotl<23>(simd::load4(in)));
}

PTRNG_SIMD_TARGET void run_gather(const double* base,
                                  const std::uint64_t* idx, double* out) {
  simd::store4(out, simd::gather4(base, simd::load4(idx)));
}

PTRNG_SIMD_TARGET void run_or_bits(const double* x, const std::uint64_t* bits,
                                   double* out) {
  simd::store4(out, simd::or_bits(simd::load4(x), simd::load4(bits)));
}

PTRNG_SIMD_TARGET void run_arith(const double* a, const double* b,
                                 double* out) {
  const simd::f64x4 va = simd::load4(a), vb = simd::load4(b);
  simd::store4(out, va * vb + va - vb);
}

#define SKIP_UNLESS_VECTOR_ACTIVE()                                       \
  if (!simd::active()) GTEST_SKIP() << "vector backend inactive ("        \
                                    << simd::compiled_backend() << ")"

TEST(SimdOps, Transpose4) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  double in[16], out[16];
  std::iota(in, in + 16, 0.0);
  run_transpose(in, out);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_EQ(out[4 * r + c], in[4 * c + r]);
}

TEST(SimdOps, LtMask) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const double a[4] = {1.0, 2.0, 3.0, 4.0};
  const double b[4] = {2.0, 2.0, 5.0, -1.0};
  EXPECT_EQ(run_lt_mask(a, b), 0b0101);
}

TEST(SimdOps, LtMaskI64IsSigned) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  // Values stay below 2^63 in-library; still pin signed semantics.
  const std::uint64_t a[4] = {1, 5, 0xfffffffffffffULL, 7};
  const std::uint64_t b[4] = {2, 5, 0xfffffffffffffULL - 1, 100};
  EXPECT_EQ(run_lt_mask_i64(a, b), 0b1001);
}

TEST(SimdOps, U52ToF64Exact) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const std::uint64_t in[4] = {0, 1, 0xfffffffffffffULL, 0x8000000000000ULL};
  double out[4];
  run_u52_to_f64(in, out);
  for (int l = 0; l < 4; ++l)
    EXPECT_EQ(out[l],
              static_cast<double>(static_cast<std::int64_t>(in[l])));
}

TEST(SimdOps, Rotl23MatchesScalar) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const std::uint64_t in[4] = {0x0123456789abcdefULL, 1ULL, ~0ULL,
                               0x8000000000000001ULL};
  std::uint64_t out[4];
  run_rotl23(in, out);
  for (int l = 0; l < 4; ++l)
    EXPECT_EQ(out[l], (in[l] << 23) | (in[l] >> 41));
}

TEST(SimdOps, Gather4) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  double base[8];
  std::iota(base, base + 8, 100.0);
  const std::uint64_t idx[4] = {7, 0, 3, 3};
  double out[4];
  run_gather(base, idx, out);
  EXPECT_EQ(out[0], 107.0);
  EXPECT_EQ(out[1], 100.0);
  EXPECT_EQ(out[2], 103.0);
  EXPECT_EQ(out[3], 103.0);
}

TEST(SimdOps, OrBitsInjectsSign) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const double x[4] = {1.5, 2.5, 0.0, 3.25};
  const std::uint64_t bits[4] = {0x8000000000000000ULL, 0,
                                 0x8000000000000000ULL, 0};
  double out[4];
  run_or_bits(x, bits, out);
  EXPECT_EQ(out[0], -1.5);
  EXPECT_EQ(out[1], 2.5);
  EXPECT_EQ(out[2], -0.0);
  EXPECT_TRUE(std::signbit(out[2]));
  EXPECT_EQ(out[3], 3.25);
}

PTRNG_SIMD_TARGET void run_set_lane(const std::uint64_t* in, std::size_t l,
                                    std::uint64_t x, std::uint64_t* out) {
  simd::store4(out, simd::set_lane(simd::load4(in), l, x));
}

TEST(SimdOps, SetLaneReplacesOneLane) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const std::uint64_t in[4] = {1, 2, 3, 4};
  for (std::size_t l = 0; l < 4; ++l) {
    std::uint64_t out[4];
    run_set_lane(in, l, ~0ULL, out);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_EQ(out[k], k == l ? ~0ULL : in[k]) << "lane " << l;
  }
}

TEST(SimdOps, ArithmeticMatchesScalarLaneWise) {
  SKIP_UNLESS_VECTOR_ACTIVE();
  const double a[4] = {1.3, -2.7, 1e300, 5e-324};
  const double b[4] = {0.9, 3.1, 2.0, 7.0};
  double out[4];
  run_arith(a, b, out);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(out[l], a[l] * b[l] + a[l] - b[l]);
}

TEST(SimdOps, ForceScalarToggle) {
  const bool was_active = simd::active();
  {
    simd::ScopedForceScalar force;
    EXPECT_TRUE(simd::scalar_forced());
    EXPECT_FALSE(simd::active());
    {
      simd::ScopedForceScalar nested;  // restores the OUTER force on exit
      EXPECT_FALSE(simd::active());
    }
    EXPECT_TRUE(simd::scalar_forced());
  }
  EXPECT_FALSE(simd::scalar_forced());
  EXPECT_EQ(simd::active(), was_active);
}

// ---------------------------------------------------------------------
// GaussianSampler::fill_packs differential tests. With SIMD active, pairs
// of packs take the 8-lane AVX-512 kernel where the CPU has it and the
// odd pack the 4-lane kernel; every draw must match scalar draws.
// ---------------------------------------------------------------------

std::vector<GaussianSampler> samplers_for(GaussianSampler::Method method,
                                          std::size_t count) {
  std::vector<GaussianSampler> samplers;
  for (std::size_t l = 0; l < count; ++l)
    samplers.emplace_back(11 * (l + 1), method);
  return samplers;
}

/// fill_packs over `count` samplers, then one more operator()() round in
/// sampler order, so the post-fill states are compared too.
std::vector<double> packs_fill(GaussianSampler::Method method,
                               std::size_t count, std::size_t n, bool force) {
  auto samplers = samplers_for(method, count);
  std::vector<double> out(count * n);
  std::optional<simd::ScopedForceScalar> guard;
  if (force) guard.emplace();
  GaussianSampler::fill_packs(samplers, out);
  for (auto& s : samplers) out.push_back(s());
  return out;
}

/// The same draws from per-sampler scalar operator()() calls, in
/// fill_packs' layout, as bit patterns.
std::vector<std::uint64_t> per_lane_reference(GaussianSampler::Method method,
                                              std::size_t count,
                                              std::size_t n) {
  auto samplers = samplers_for(method, count);
  std::vector<std::uint64_t> ref(count * n + count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t pack = s / 4 * 4 * n;
    for (std::size_t i = 0; i < n; ++i)
      ref[pack + 4 * i + s % 4] = std::bit_cast<std::uint64_t>(samplers[s]());
    ref[count * n + s] = std::bit_cast<std::uint64_t>(samplers[s]());
  }
  return ref;
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits(v.size());
  std::transform(v.begin(), v.end(), bits.begin(),
                 [](double x) { return std::bit_cast<std::uint64_t>(x); });
  return bits;
}

std::vector<double> lanes_fill(GaussianSampler::Method method, std::size_t n,
                               bool force) {
  return packs_fill(method, 4, n, force);
}

TEST(FillLanes, ZigguratSimdMatchesScalarFallback) {
  // 100k per lane crosses the vector slow-path (~1.5% of draws) often.
  for (std::size_t n : {1u, 7u, 100'000u}) {
    EXPECT_EQ(lanes_fill(GaussianSampler::Method::Ziggurat, n, false),
              lanes_fill(GaussianSampler::Method::Ziggurat, n, true))
        << "n=" << n;
  }
}

TEST(FillLanes, MatchesIndependentPerLaneDraws) {
  const std::size_t n = 5000;
  for (auto method : {GaussianSampler::Method::Ziggurat,
                      GaussianSampler::Method::Polar}) {
    EXPECT_EQ(bit_patterns(lanes_fill(method, n, false)),
              per_lane_reference(method, 4, n))
        << "method=" << static_cast<int>(method);
  }
}

TEST(FillPacks, ZigguratMatchesPerLaneScalarDrawsAtEveryShape) {
  // 4 and 12 samplers leave an odd pack, 8 and 24 only pairs, 20 (the
  // paper bank's packed stages) two pairs and an odd pack.
  for (const std::size_t count : {4u, 8u, 12u, 20u, 24u}) {
    for (const std::size_t n : {1u, 63u, 64u, 65u, 100'000u}) {
      const auto ref =
          per_lane_reference(GaussianSampler::Method::Ziggurat, count, n);
      for (const bool force : {false, true}) {
        ASSERT_EQ(bit_patterns(packs_fill(GaussianSampler::Method::Ziggurat,
                                          count, n, force)),
                  ref)
            << "samplers=" << count << " n=" << n << " forced=" << force;
      }
    }
  }
}

TEST(FillPacks, PolarAndMixedPacksMatchPerLaneScalarDraws) {
  EXPECT_EQ(bit_patterns(packs_fill(GaussianSampler::Method::Polar, 12, 65,
                                    false)),
            per_lane_reference(GaussianSampler::Method::Polar, 12, 65));
  // One Polar sampler in the second pack sends its group of 8 down the
  // scalar path; the third pack still rides the kernel.
  auto mixed = samplers_for(GaussianSampler::Method::Ziggurat, 12);
  auto ref = samplers_for(GaussianSampler::Method::Ziggurat, 12);
  mixed[5] = GaussianSampler(66, GaussianSampler::Method::Polar);
  ref[5] = mixed[5];
  const std::size_t n = 1000;
  std::vector<double> out(12 * n);
  GaussianSampler::fill_packs(mixed, out);
  for (std::size_t s = 0; s < 12; ++s)
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[s / 4 * 4 * n + 4 * i + s % 4]),
                std::bit_cast<std::uint64_t>(ref[s]()))
          << "sampler " << s << " draw " << i;
}

TEST(FillPacks, LongFillsCrossTheWedgeAndTheTail) {
  // A scalar replay of one lane's n = 100000 draws: the kernel matched
  // them bit for bit above, so its slow path ran wherever a first word
  // missed the fast accept. Layer 0 misses go to the tail, the others to
  // the wedge, and both consume words beyond the first.
  constexpr std::size_t n = 100'000;
  for (const std::size_t lane : {0u, 5u, 19u}) {
    Xoshiro256pp rng = GaussianSampler(11 * (lane + 1)).uniform_rng();
    const Xoshiro256pp start = rng;
    std::size_t wedge = 0, tail = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Xoshiro256pp peek = rng;
      const std::uint64_t bits = peek.next();
      const std::size_t idx = bits & 0xffu;
      if (((bits >> 9) & 0xfffffffffffffULL) >= detail::kZigguratAccept[idx])
        ++(idx == 0 ? tail : wedge);
      (void)detail::ziggurat_draw(rng);
    }
    std::size_t words = 0;
    for (Xoshiro256pp count = start; count.state() != rng.state(); ++words)
      count.next();
    EXPECT_GT(words, n) << "lane " << lane;
    EXPECT_GT(wedge, 0u) << "lane " << lane;
    EXPECT_GT(tail, 0u) << "lane " << lane;
  }
}

// ---------------------------------------------------------------------
// FilterBankFlicker fill and per-call kernels: SIMD vs forced scalar at
// several pool widths, stage-count remainders, a mid-block re-entry, and
// advance_sum / advance_sums / next / last_sample interleaves. Stage
// counts are swept via stages_per_decade so the AR(1) pack loop sees
// full packs, scalar tails (1-2 stages) and the padded 3-stage tail.
// ---------------------------------------------------------------------

noise::FilterBankFlicker::Config bank_config(unsigned spd,
                                             double f_min = 5e-7) {
  noise::FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = f_min;
  cfg.f_max = 0.25;
  cfg.seed = 0xbac2;
  cfg.stages_per_decade = spd;
  return cfg;
}

/// Every double a bank run produces, as bit patterns: the comparison is
/// bitwise, so -0.0 against +0.0 or a NaN payload would show too.
std::vector<std::uint64_t> bank_run(
    const noise::FilterBankFlicker::Config& config, bool force,
    std::size_t threads) {
  noise::FilterBankFlicker bank(config);
  std::optional<simd::ScopedForceScalar> guard;
  if (force) guard.emplace();
  ThreadPool::global().resize(threads);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> out(9001);
  out.push_back(bank.last_sample());  // the constructor's state sum
  bank.fill(std::span<double>(out).subspan(0, 1234));  // mid-block cut
  // The kept state sum is the sample the stage-order fold produced.
  EXPECT_EQ(bits(bank.last_sample()), bits(out[1233]));
  out.push_back(bank.advance_sum(57));
  out.push_back(bank.last_sample());
  bank.fill(std::span<double>(out).subspan(1234, 9001 - 1234));
  EXPECT_EQ(bits(bank.last_sample()), bits(out[9000]));
  out.push_back(bank.next());
  EXPECT_EQ(bits(bank.last_sample()), bits(out.back()));
  // Per-call kernels: advance_sum over short, paper-divider and long
  // blocks with next() interleaved, for long enough to cross several
  // draw-ahead refills.
  for (int round = 0; round < 6; ++round) {
    for (const std::size_t k : {2, 3, 57, 199, 200, 201, 10000}) {
      out.push_back(bank.advance_sum(k));
      out.push_back(bank.last_sample());
      out.push_back(bank.next());
      EXPECT_EQ(bits(bank.last_sample()), bits(out.back()));
    }
  }
  // Batched block sums: the filter's lane partial sums, its scalar tail
  // and the end-state realization, interleaved with the per-call paths.
  std::vector<double> sums(noise::FilterBankFlicker::kMaxSumBlocks);
  for (const std::size_t k : {2, 8, 200, 100000}) {
    for (const std::size_t d : {1, 63, 64}) {
      bank.advance_sums(k, std::span<double>(sums).first(d));
      out.insert(out.end(), sums.begin(), sums.begin() + d);
      out.push_back(bank.last_sample());
      out.push_back(bank.next());
      out.push_back(bank.advance_sum(k));
    }
  }
  ThreadPool::global().resize(0);
  std::vector<std::uint64_t> pattern(out.size());
  std::transform(out.begin(), out.end(), pattern.begin(), bits);
  return pattern;
}

TEST(FilterBankSimd, FillMatchesScalarFallbackAcrossStageRemainders) {
  std::set<std::size_t> remainders;
  for (unsigned spd : {1u, 2u, 3u, 4u, 5u, 6u}) {
    remainders.insert(
        noise::FilterBankFlicker(bank_config(spd)).stage_count() % 4);
    EXPECT_EQ(bank_run(bank_config(spd), false, 1),
              bank_run(bank_config(spd), true, 1))
        << "stages_per_decade=" << spd;
  }
  // The sweep must actually exercise several pack-tail shapes.
  EXPECT_GE(remainders.size(), 3u);
}

TEST(FilterBankSimd, PaperShapedBankMatchesScalarFallback) {
  // 21 stages, as in the paper's bank: the draw-ahead refill runs two
  // pairs of packs, one odd pack and one scalar tail stage.
  const auto cfg = bank_config(4, 3e-6);
  ASSERT_EQ(noise::FilterBankFlicker(cfg).stage_count(), 21u);
  EXPECT_EQ(bank_run(cfg, false, 1), bank_run(cfg, true, 1));
}

TEST(FilterBankSimd, FillIndependentOfThreadCount) {
  const auto cfg = bank_config(3);
  const auto ref = bank_run(cfg, false, 1);
  EXPECT_EQ(ref, bank_run(cfg, false, 2));
  EXPECT_EQ(ref, bank_run(cfg, false, 8));
  EXPECT_EQ(ref, bank_run(cfg, true, 8));
}

TEST(FilterBankSimd, AdvanceSumMemoStableAcrossCacheWrap) {
  // Two identical banks run the same k-sequence, long enough to wrap the
  // 8-slot memo; interleaved fills confirm the stream stays in lockstep.
  noise::FilterBankFlicker a(bank_config(3)), b(bank_config(3));
  std::vector<double> buf_a(64), buf_b(64);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 5; k <= 13; ++k) {
      ASSERT_EQ(a.advance_sum(k), b.advance_sum(k)) << "k=" << k;
    }
    a.fill(buf_a);
    b.fill(buf_b);
    ASSERT_EQ(buf_a, buf_b);
  }
}

// ---------------------------------------------------------------------
// DifferentialCounter: SIMD vs forced scalar, split re-entry (buffered
// edge carry), and the exact conservation invariant.
// ---------------------------------------------------------------------

struct CounterRun {
  std::vector<std::int64_t> counts;
  std::uint64_t cycles = 0;
  std::size_t buffered = 0;
};

CounterRun counter_run(bool force, std::size_t splits, std::size_t threads) {
  oscillator::RingOscillatorConfig c1, c2;
  c1.seed = 0x51;
  c2.seed = 0x52;
  c2.mismatch = 1.5e-3;
  oscillator::RingOscillator osc1(c1), osc2(c2);
  measurement::DifferentialCounter counter(osc1, osc2);
  std::optional<simd::ScopedForceScalar> guard;
  if (force) guard.emplace();
  ThreadPool::global().resize(threads);
  CounterRun r;
  const std::size_t n_windows = 120, n_cycles = 700;
  std::size_t done = 0;
  for (std::size_t s = 0; s < splits; ++s) {
    const std::size_t take =
        (s + 1 == splits) ? n_windows - done : n_windows / splits;
    const auto part = counter.count_windows(n_cycles, take);
    r.counts.insert(r.counts.end(), part.begin(), part.end());
    done += take;
  }
  ThreadPool::global().resize(0);
  r.cycles = osc1.cycle_count();
  r.buffered = counter.buffered_edges();
  return r;
}

TEST(CounterSimd, CountsMatchScalarFallback) {
  for (std::size_t splits : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto v = counter_run(false, splits, threads);
      const auto s = counter_run(true, splits, threads);
      EXPECT_EQ(v.counts, s.counts)
          << "splits=" << splits << " threads=" << threads;
      EXPECT_EQ(v.cycles, s.cycles);
      EXPECT_EQ(v.buffered, s.buffered);
    }
  }
}

TEST(CounterSimd, SplitRunPreservesCountsAndConservation) {
  const auto whole = counter_run(false, 1, 1);
  const auto split = counter_run(false, 3, 1);
  EXPECT_EQ(whole.counts, split.counts);
  const auto total = std::accumulate(whole.counts.begin(), whole.counts.end(),
                                     std::int64_t{0});
  EXPECT_EQ(static_cast<std::uint64_t>(total) + whole.buffered, whole.cycles);
}

}  // namespace
