// Distribution-quality tests for the 2048-layer ziggurat sampler (the
// GaussianSampler default engine) and statistical-equivalence checks
// against the Marsaglia polar method it replaced, plus pins of the
// table itself: its (r, V) pair against a run-time high-precision
// solver of the closure condition, and its fast-accept miss rate. Bands
// follow the stat_tolerance.hpp conventions (z = 5 unless stated).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/ziggurat.hpp"
#include "stat_tolerance.hpp"
#include "stats/normality.hpp"
#include "stats/special.hpp"

namespace {

using namespace ptrng;

constexpr double kZigguratR = ZigguratNormal::kTailEdge;

std::vector<double> draw_block(GaussianSampler::Method method,
                               std::uint64_t seed, std::size_t n) {
  GaussianSampler g(seed, method);
  std::vector<double> out(n);
  g.fill(out);
  return out;
}

TEST(Ziggurat, DefaultMethodIsZigguratAndAccessorReports) {
  GaussianSampler def(1);
  EXPECT_EQ(def.method(), GaussianSampler::Method::Ziggurat);
  GaussianSampler pol(1, GaussianSampler::Method::Polar);
  EXPECT_EQ(pol.method(), GaussianSampler::Method::Polar);
}

TEST(Ziggurat, FillMatchesScalarExactly) {
  // fill() must be BIT-identical to stepping, including across
  // unaligned split boundaries (the ziggurat keeps no cross-draw
  // state, so any split must land on the same stream).
  GaussianSampler stepped(0x216, GaussianSampler::Method::Ziggurat);
  GaussianSampler batched(0x216, GaussianSampler::Method::Ziggurat);
  std::vector<double> expected(4097);
  for (auto& x : expected) x = stepped();
  std::vector<double> got(expected.size());
  batched.fill(std::span<double>(got).subspan(0, 37));
  batched.fill(std::span<double>(got).subspan(37, 1000));
  batched.fill(std::span<double>(got).subspan(1037));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;
  // Lockstep continues after the batch.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batched(), stepped());
}

TEST(Ziggurat, StandaloneClassMatchesSamplerDispatch) {
  // common::ZigguratNormal and GaussianSampler{Method::Ziggurat} must
  // realize the same stream from the same seed (the sampler dispatches
  // to the class, it does not reimplement it).
  ZigguratNormal zig(0x51a);
  GaussianSampler gauss(0x51a, GaussianSampler::Method::Ziggurat);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(zig(), gauss());
  ZigguratNormal zfill(0x51a);
  GaussianSampler gfill(0x51a);
  std::vector<double> a(777), b(777);
  zfill.fill(a);
  gfill.fill(b);
  EXPECT_EQ(a, b);
}

TEST(Ziggurat, PolarFillStillMatchesPolarStepping) {
  // The Polar engine (pre-PR-5 streams) keeps its pair-cache semantics:
  // fill == stepping, including the odd-length cached tail.
  GaussianSampler stepped(0x90a7, GaussianSampler::Method::Polar);
  GaussianSampler batched(0x90a7, GaussianSampler::Method::Polar);
  std::vector<double> expected(1001);
  for (auto& x : expected) x = stepped();
  std::vector<double> got(expected.size());
  batched.fill(got);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;
  EXPECT_EQ(batched(), stepped());  // cached partner drains identically
}

TEST(Ziggurat, MomentsMatchStandardNormal) {
  const std::size_t n = 1u << 22;
  const auto x = draw_block(GaussianSampler::Method::Ziggurat, 0x2195, n);
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  for (double v : x) {
    s1 += v;
    s2 += v * v;
    s3 += v * v * v;
    s4 += v * v * v * v;
  }
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(s1 / dn, 0.0, ptrng::testing::normal_raw_moment_tol(n, 1));
  EXPECT_NEAR(s2 / dn, 1.0, ptrng::testing::normal_raw_moment_tol(n, 2));
  EXPECT_NEAR(s3 / dn, 0.0, ptrng::testing::normal_raw_moment_tol(n, 3));
  EXPECT_NEAR(s4 / dn, 3.0, ptrng::testing::normal_raw_moment_tol(n, 4));
}

TEST(Ziggurat, KolmogorovSmirnovAndJarqueBera) {
  const auto x = draw_block(GaussianSampler::Method::Ziggurat, 0x2196, 100000);
  EXPECT_FALSE(stats::ks_normal(x).reject(0.001));
  EXPECT_FALSE(stats::jarque_bera(x).reject(0.001));
}

TEST(Ziggurat, TailMassMatchesNormal) {
  // Exercises both rare paths: |x| > 3 crosses the wedge-heavy outer
  // layers, |x| > r can only come from the explicit Marsaglia tail
  // sampler (a broken tail path would zero this count).
  const std::size_t n = 4u << 20;
  const auto x = draw_block(GaussianSampler::Method::Ziggurat, 0x2197, n);
  std::size_t beyond3 = 0, beyond_r = 0, positive = 0;
  for (double v : x) {
    if (std::abs(v) > 3.0) ++beyond3;
    if (std::abs(v) > kZigguratR) ++beyond_r;
    if (v > 0.0) ++positive;
  }
  const double p3 = 2.0 * (1.0 - stats::normal_cdf(3.0));
  const double pr = 2.0 * (1.0 - stats::normal_cdf(kZigguratR));
  EXPECT_NEAR(static_cast<double>(beyond3), static_cast<double>(n) * p3,
              ptrng::testing::count_tol(n, p3));
  EXPECT_NEAR(static_cast<double>(beyond_r), static_cast<double>(n) * pr,
              ptrng::testing::count_tol(n, pr));
  // Sign symmetry (the sign bit is independent of the magnitude).
  EXPECT_NEAR(static_cast<double>(positive), static_cast<double>(n) * 0.5,
              ptrng::testing::count_tol(n, 0.5));
}

// ---------------------------------------------------------------------
// The table's geometry, solved at run time in long double (64-bit
// mantissa on x86-64, binary128 on AArch64 Linux). For L layers and a
// tail edge r, every layer has area V(r) = r f(r) + ∫_r^∞ f with
// f(x) = exp(-x^2/2), and the right edges are x_0 = r and
// x_i = f^{-1}(V/x_{i-1} + f(x_{i-1})) for i = 1..L-2. The closure
// condition is that the top rectangle, of width x_{L-2}, reaches the
// mode exactly: V/x_{L-2} + f(x_{L-2}) = 1.
// ---------------------------------------------------------------------

struct Geometry {
  long double r = 0, v = 0, f_r = 0;
  std::vector<long double> x;  ///< x_0 = r .. x_{L-2}
  bool overshoots = false;     ///< the stack passed the mode too early
};

Geometry stack_layers(std::size_t layers, long double r) {
  Geometry g;
  g.r = r;
  g.f_r = std::exp(-0.5L * r * r);
  g.v = r * g.f_r + std::sqrt(std::numbers::pi_v<long double> / 2) *
                        std::erfc(r / std::numbers::sqrt2_v<long double>);
  g.x.push_back(r);
  long double fx = g.f_r;
  for (std::size_t i = 1; i < layers - 1; ++i) {
    fx += g.v / g.x.back();
    if (fx >= 1) {
      g.overshoots = true;
      return g;
    }
    g.x.push_back(std::sqrt(-2 * std::log(fx)));
  }
  g.overshoots = g.v / g.x.back() + fx > 1;
  return g;
}

/// The r in [lo, hi] that closes `layers` layers, by bisection to the
/// last bit of long double: a smaller r has a larger V and overshoots.
Geometry solve_closure(std::size_t layers, long double lo, long double hi) {
  for (;;) {
    const long double mid = lo + (hi - lo) / 2;
    if (mid == lo || mid == hi) break;
    (stack_layers(layers, mid).overshoots ? lo : hi) = mid;
  }
  return stack_layers(layers, lo);
}

/// |a - b| in units of the double spacing at b.
double ulps(double a, double b) {
  return std::abs(a - b) / (std::nextafter(b, INFINITY) - b);
}

TEST(Ziggurat, SolverReproducesThePublished256LayerPair) {
  const Geometry g = solve_closure(256, 3.5L, 3.8L);
  // Marsaglia & Tsang's r = 3.6541528853610088.
  EXPECT_LE(ulps(static_cast<double>(g.r), 3.6541528853610088), 2.0);
  // Their V agrees with the closure only to ~3.4e-12 relative: its
  // digits past the 11th differ from the solved value.
  EXPECT_LE(ulps(static_cast<double>(g.v), 4.9286732339746553e-3), 2.0);
  EXPECT_NEAR(static_cast<double>(g.v), 4.92867323399141470e-3,
              4e-12 * 4.93e-3);
}

TEST(Ziggurat, SolverReproducesTheLibraryPair) {
  const Geometry g = solve_closure(detail::kZigguratLayers, 3.0L, 5.0L);
  EXPECT_LE(ulps(static_cast<double>(g.r), ZigguratNormal::kTailEdge), 2.0);
  EXPECT_LE(ulps(static_cast<double>(g.v), ZigguratNormal::kLayerArea), 2.0);
}

TEST(Ziggurat, FastAcceptMissRateMatchesTheTable) {
  // The table's analytic miss rate: a word's 52-bit magnitude is uniform,
  // so it misses layer i with probability 1 - accept_i / 2^52.
  constexpr double kM52 = 4503599627370496.0;  // 2^52
  double analytic = 0.0;
  for (const std::uint64_t accept : detail::kZigguratAccept)
    analytic += 1.0 - static_cast<double>(accept) / kM52;
  analytic /= static_cast<double>(detail::kZigguratLayers);
  // The same rate from the geometry: layer 0 accepts r out of its
  // virtual width V/f(r), layer i x_i out of x_{i-1}, and the top layer
  // (x_{L-1} = 0) always takes the wedge.
  const Geometry g = stack_layers(detail::kZigguratLayers,
                                  ZigguratNormal::kTailEdge);
  long double geometric = 1 - g.r * g.f_r / g.v + 1;
  for (std::size_t i = 1; i < g.x.size(); ++i)
    geometric += 1 - g.x[i] / g.x[i - 1];
  geometric /= static_cast<long double>(detail::kZigguratLayers);
  EXPECT_NEAR(analytic, static_cast<double>(geometric), 1e-9);
  EXPECT_NEAR(analytic, 0.002271, 1e-6);
  // Measured over 1e7 words of one stream, within 4 sigma.
  const std::size_t n = 10'000'000;
  Xoshiro256pp rng(0x2048);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    misses += !detail::ziggurat_fast_accept(rng.next());
  }
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(misses), dn * analytic,
              4.0 * std::sqrt(dn * analytic * (1.0 - analytic)));
}

TEST(Ziggurat, PolarAndZigguratAreStatisticallyEquivalent) {
  // Same marginal distribution from either engine: mean difference
  // within z*sqrt(2/n) and variance ratio within the two-sample
  // chi-square band (variance_ratio_tol with m = n/2 since BOTH sides
  // are estimated), plus per-engine normality.
  const std::size_t n = 1u << 21;
  const auto zig = draw_block(GaussianSampler::Method::Ziggurat, 0xe9a1, n);
  const auto pol = draw_block(GaussianSampler::Method::Polar, 0xe9a2, n);
  double mz = 0, mp = 0, vz = 0, vp = 0;
  for (double v : zig) mz += v;
  for (double v : pol) mp += v;
  mz /= static_cast<double>(n);
  mp /= static_cast<double>(n);
  for (double v : zig) vz += (v - mz) * (v - mz);
  for (double v : pol) vp += (v - mp) * (v - mp);
  vz /= static_cast<double>(n - 1);
  vp /= static_cast<double>(n - 1);
  EXPECT_NEAR(mz - mp, 0.0,
              5.0 * std::sqrt(2.0 / static_cast<double>(n)));
  EXPECT_NEAR(vz / vp, 1.0, ptrng::testing::variance_ratio_tol(n / 2));
}

}  // namespace
