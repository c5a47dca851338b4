#include "common/ziggurat.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/simd.hpp"

namespace ptrng {

namespace {

// ---------------------------------------------------------------------
// consteval math. std::exp/log/sqrt are not constexpr in C++20, so the
// table generator brings its own: argument-reduced Taylor exp, atanh-
// series log, and Newton sqrt, each accurate to ~1 ulp over the ranges
// the recurrence visits (x in [0, 3.66], densities in [1.3e-3, 1]).
// ---------------------------------------------------------------------

constexpr double kLn2 = 0.69314718055994530941723212145818;

consteval double cexp(double x) {
  // x = k*ln2 + t with |t| <= ln2/2; exp(x) = 2^k * exp(t).
  int k = 0;
  double t = x;
  while (t > 0.5 * kLn2) {
    t -= kLn2;
    ++k;
  }
  while (t < -0.5 * kLn2) {
    t += kLn2;
    --k;
  }
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n <= 26; ++n) {
    term *= t / static_cast<double>(n);
    sum += term;
  }
  for (; k > 0; --k) sum *= 2.0;
  for (; k < 0; ++k) sum *= 0.5;
  return sum;
}

consteval double clog(double y) {
  // Scale y into [1/sqrt(2), sqrt(2)); ln(m) = 2*atanh((m-1)/(m+1)),
  // |t| <= 0.1716 so the odd series gains ~1.5 digits per term.
  int e = 0;
  double m = y;
  while (m < 0.70710678118654752440) {
    m *= 2.0;
    --e;
  }
  while (m >= 1.41421356237309504880) {
    m *= 0.5;
    ++e;
  }
  const double t = (m - 1.0) / (m + 1.0);
  const double t2 = t * t;
  double term = t;
  double sum = 0.0;
  for (int n = 0; n < 16; ++n) {
    sum += term / static_cast<double>(2 * n + 1);
    term *= t2;
  }
  return 2.0 * sum + static_cast<double>(e) * kLn2;
}

consteval double csqrt(double v) {
  if (v <= 0.0) return 0.0;
  double x = v < 1.0 ? 1.0 : v;
  for (int i = 0; i < 64; ++i) x = 0.5 * (x + v / x);
  return x;
}

// ---------------------------------------------------------------------
// Layer tables. 256 regions of equal area V: the base strip plus tail
// (layer 0) and 255 stacked rectangles with right edges x_0 = r down to
// x_255 = 0, where f(x) = exp(-x^2/2) and the recurrence is
// x_i = f^{-1}(V/x_{i-1} + f(x_{i-1})). (r, V) are the published
// 256-layer constants (Marsaglia & Tsang 2000; Doornik 2005).
// ---------------------------------------------------------------------

constexpr std::size_t kLayers = 256;
constexpr double kR = 3.6541528853610087963519472518;
constexpr double kInvR = 1.0 / kR;
constexpr double kV = 0.00492867323399141470237287454652;
constexpr double kM52 = 4503599627370496.0;  // 2^52: magnitude resolution

struct Tables {
  std::array<std::uint64_t, kLayers> ki{};  ///< fast-accept bound per layer
  std::array<double, kLayers> wi{};         ///< layer width / 2^52
  std::array<double, kLayers> fi{};         ///< f at the layer's right edge
};

consteval Tables make_tables() {
  Tables t;
  double x_prev = kR;                      // x_0
  double f_prev = cexp(-0.5 * kR * kR);    // f(r)
  // Layer 0: candidates span the base strip's virtual width V/f(r);
  // x <= r accepts (fully under the curve), x > r resamples the tail.
  t.wi[0] = kV / f_prev / kM52;
  t.ki[0] = static_cast<std::uint64_t>(kR / t.wi[0]);
  t.fi[0] = f_prev;
  for (std::size_t i = 1; i < kLayers; ++i) {
    const double x =
        i < kLayers - 1
            ? csqrt(-2.0 * clog(kV / x_prev + f_prev))  // f^{-1} step
            : 0.0;  // closure: the top rectangle reaches the mode
    t.wi[i] = x_prev / kM52;
    t.ki[i] = static_cast<std::uint64_t>((x / x_prev) * kM52);
    t.fi[i] = i < kLayers - 1 ? cexp(-0.5 * x * x) : 1.0;
    x_prev = x;
    f_prev = t.fi[i];
  }
  return t;
}

constexpr Tables kTab = make_tables();

/// The random sign lands in the double's sign bit via OR — a branch
/// here would mispredict half the time and dominate the fast path.
inline double apply_sign(double magnitude, std::uint64_t sign_bit) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) |
                               sign_bit);
}

// One draw attempt consumes exactly one 64-bit word on the fast path;
// the wedge test adds one word (its uniform), the tail two per round.
// Split so the inline fast path (detail::ziggurat_draw) and the SIMD
// lane kernel can hand over an already-drawn word and let the exact
// scalar wedge/tail logic finish the draw.
inline double draw_from_word(Xoshiro256pp& rng, std::uint64_t bits) noexcept {
  for (;;) {
    const std::size_t idx = bits & 0xffu;
    const std::uint64_t sign_bit = (bits & 0x100u) << 55;  // bit 8 -> bit 63
    const std::uint64_t rabs = (bits >> 9) & 0xfffffffffffffULL;  // 52 bits
    // rabs < 2^52, so the int64_t cast is exact and keeps the
    // conversion on the fast signed cvt path.
    const double x =
        static_cast<double>(static_cast<std::int64_t>(rabs)) * kTab.wi[idx];
    if (rabs < kTab.ki[idx]) return apply_sign(x, sign_bit);  // ~98.5%
    if (idx == 0) {
      // Exact tail beyond r (Marsaglia): x = -ln(U1)/r, y = -ln(U2),
      // accept when 2y > x^2; the accepted r + x has the conditional
      // normal tail distribution.
      for (;;) {
        const double xt = -std::log(rng.uniform_pos()) * kInvR;
        const double yt = -std::log(rng.uniform_pos());
        if (yt + yt > xt * xt) return apply_sign(kR + xt, sign_bit);
      }
    }
    // Wedge: y uniform over [f(x_{idx-1}), f(x_idx)] against the density.
    if (kTab.fi[idx - 1] +
            (kTab.fi[idx] - kTab.fi[idx - 1]) * rng.uniform() <
        std::exp(-0.5 * x * x))
      return apply_sign(x, sign_bit);
    bits = rng.next();
  }
}

// ---------------------------------------------------------------------
// Lane-parallel kernels: 4 or 8 xoshiro256++ states step struct-of-
// arrays (one vector per state word; integer rotate/shift/xor are exact,
// so each lane's word sequence is the scalar generator's), the layer
// tables are gathered per lane, and the fast-path accept test is one
// 64-bit vector compare. When a lane misses the ~98.5% accept, the
// states go to memory once; each missed lane finishes its draw through
// detail::ziggurat_finish (consuming that lane's stream alone) and its
// new state is written back into the live registers, lane by lane.
// Per-lane output and stream consumption are bit-identical to scalar
// samplers.
//
// No fused multiply-add anywhere: the scalar path is built for the
// baseline ISA (no FMA), so the kernels must round every mul/add
// separately to stay bit-identical (common/simd.hpp header notes). The
// fast path has one multiply and no add; the slow path is
// detail::ziggurat_finish, which is never inlined and so keeps the
// baseline ISA: a kernel whose target brings FMA (AVX-512F does in GCC)
// cannot contract the wedge test's mul-then-add.
// ---------------------------------------------------------------------

/// One 4-stream pack on the portable 4-lane layer: out[4*i + l] is the
/// i-th draw of *rngs[l].
PTRNG_SIMD_TARGET void fill_lanes4_kernel(Xoshiro256pp* const* rngs,
                                          std::size_t n,
                                          double* out) noexcept {
  alignas(32) std::uint64_t st[4][4];  // [state word][lane]
  for (std::size_t l = 0; l < 4; ++l) {
    const auto& s = rngs[l]->state();
    for (std::size_t w = 0; w < 4; ++w) st[w][l] = s[w];
  }
  simd::i64x4 s0 = simd::load4(st[0]);
  simd::i64x4 s1 = simd::load4(st[1]);
  simd::i64x4 s2 = simd::load4(st[2]);
  simd::i64x4 s3 = simd::load4(st[3]);
  const simd::i64x4 idx_mask = simd::splat4(std::uint64_t{0xff});
  const simd::i64x4 sign_mask = simd::splat4(std::uint64_t{0x100});
  const simd::i64x4 rabs_mask = simd::splat4(std::uint64_t{0xfffffffffffff});
  for (std::size_t i = 0; i < n; ++i) {
    // xoshiro256++ step across lanes (same ops as Xoshiro256pp::next).
    const simd::i64x4 word = simd::rotl<23>(s0 + s3) + s0;
    const simd::i64x4 t = simd::shl<17>(s1);
    s2 = s2 ^ s0;
    s3 = s3 ^ s1;
    s1 = s1 ^ s2;
    s0 = s0 ^ s3;
    s2 = s2 ^ t;
    s3 = simd::rotl<45>(s3);
    const simd::i64x4 idx = word & idx_mask;
    const simd::i64x4 sign = simd::shl<55>(word & sign_mask);
    const simd::i64x4 rabs = simd::shr<9>(word) & rabs_mask;
    const simd::f64x4 wi = simd::gather4(kTab.wi.data(), idx);
    const simd::i64x4 ki = simd::gather4(kTab.ki.data(), idx);
    const simd::f64x4 x = simd::u52_to_f64(rabs) * wi;
    simd::store4(out + 4 * i, simd::or_bits(x, sign));
    const int accept = simd::lt_mask_i64(rabs, ki);
    if (accept == 0xf) continue;
    // Slow path: missed lanes overwrite their slot of the stored draws
    // and are blended back into the state registers.
    simd::store4(st[0], s0);
    simd::store4(st[1], s1);
    simd::store4(st[2], s2);
    simd::store4(st[3], s3);
    alignas(32) std::uint64_t words[4];
    simd::store4(words, word);
    for (unsigned miss = ~accept & 0xfu; miss != 0; miss &= miss - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(miss));
      Xoshiro256pp lane({st[0][l], st[1][l], st[2][l], st[3][l]});
      out[4 * i + l] = detail::ziggurat_finish(lane, words[l]);
      const auto& ns = lane.state();
      s0 = simd::set_lane(s0, l, ns[0]);
      s1 = simd::set_lane(s1, l, ns[1]);
      s2 = simd::set_lane(s2, l, ns[2]);
      s3 = simd::set_lane(s3, l, ns[3]);
    }
  }
  simd::store4(st[0], s0);
  simd::store4(st[1], s1);
  simd::store4(st[2], s2);
  simd::store4(st[3], s3);
  for (std::size_t l = 0; l < 4; ++l)
    rngs[l]->set_state({st[0][l], st[1][l], st[2][l], st[3][l]});
}

#if PTRNG_SIMD_AVX2
// GCC 12's AVX-512 headers seed shift, rotate, gather and extract
// results with an undefined vector and then warn that it may be used
// uninitialized (GCC PR 105593); nothing here reads such a value.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
/// Two packs at once on AVX-512: lanes 0-3 are the pack at `out`, lanes
/// 4-7 the pack at out + 4*n, each in fill_lanes4_kernel's layout. The
/// same steps as the 4-lane kernel, written straight in AVX-512
/// intrinsics; a missed lane's new state returns to the registers by a
/// masked broadcast.
PTRNG_SIMD_TARGET_AVX512 void fill_lanes8_kernel(Xoshiro256pp* const* rngs,
                                                 std::size_t n,
                                                 double* out) noexcept {
  alignas(64) std::uint64_t st[4][8];  // [state word][lane]
  for (std::size_t l = 0; l < 8; ++l) {
    const auto& s = rngs[l]->state();
    for (std::size_t w = 0; w < 4; ++w) st[w][l] = s[w];
  }
  __m512i s0 = _mm512_load_si512(st[0]);
  __m512i s1 = _mm512_load_si512(st[1]);
  __m512i s2 = _mm512_load_si512(st[2]);
  __m512i s3 = _mm512_load_si512(st[3]);
  const __m512i idx_mask = _mm512_set1_epi64(0xff);
  const __m512i sign_mask = _mm512_set1_epi64(0x100);
  const __m512i rabs_mask = _mm512_set1_epi64(0xfffffffffffff);
  double* const out_hi = out + 4 * n;
  for (std::size_t i = 0; i < n; ++i) {
    const __m512i word = _mm512_add_epi64(
        _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    const __m512i idx = _mm512_and_si512(word, idx_mask);
    const __m512i sign =
        _mm512_slli_epi64(_mm512_and_si512(word, sign_mask), 55);
    const __m512i rabs =
        _mm512_and_si512(_mm512_srli_epi64(word, 9), rabs_mask);
    const __m512d wi = _mm512_i64gather_pd(idx, kTab.wi.data(), 8);
    const __m512i ki = _mm512_i64gather_epi64(idx, kTab.ki.data(), 8);
    // rabs < 2^52: the conversion is exact, as the scalar cast is.
    const __m512d x = _mm512_mul_pd(_mm512_cvtepi64_pd(rabs), wi);
    const __m512d res = _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_castpd_si512(x), sign));
    _mm256_storeu_pd(out + 4 * i, _mm512_castpd512_pd256(res));
    _mm256_storeu_pd(out_hi + 4 * i, _mm512_extractf64x4_pd(res, 1));
    const unsigned accept = _mm512_cmplt_epi64_mask(rabs, ki);
    if (accept == 0xff) continue;
    _mm512_store_si512(st[0], s0);
    _mm512_store_si512(st[1], s1);
    _mm512_store_si512(st[2], s2);
    _mm512_store_si512(st[3], s3);
    alignas(64) std::uint64_t words[8];
    _mm512_store_si512(words, word);
    for (unsigned miss = ~accept & 0xffu; miss != 0; miss &= miss - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(miss));
      Xoshiro256pp lane({st[0][l], st[1][l], st[2][l], st[3][l]});
      (l < 4 ? out : out_hi)[4 * i + (l & 3)] =
          detail::ziggurat_finish(lane, words[l]);
      const auto& ns = lane.state();
      const auto m = static_cast<__mmask8>(1u << l);
      s0 = _mm512_mask_set1_epi64(s0, m, static_cast<long long>(ns[0]));
      s1 = _mm512_mask_set1_epi64(s1, m, static_cast<long long>(ns[1]));
      s2 = _mm512_mask_set1_epi64(s2, m, static_cast<long long>(ns[2]));
      s3 = _mm512_mask_set1_epi64(s3, m, static_cast<long long>(ns[3]));
    }
  }
  _mm512_store_si512(st[0], s0);
  _mm512_store_si512(st[1], s1);
  _mm512_store_si512(st[2], s2);
  _mm512_store_si512(st[3], s3);
  for (std::size_t l = 0; l < 8; ++l)
    rngs[l]->set_state({st[0][l], st[1][l], st[2][l], st[3][l]});
}
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

}  // namespace

namespace detail {

constinit const std::array<std::uint64_t, kLayers> kZigguratAccept = kTab.ki;
constinit const std::array<double, kLayers> kZigguratWidth = kTab.wi;

double ziggurat_finish(Xoshiro256pp& rng, std::uint64_t bits) noexcept {
  return draw_from_word(rng, bits);
}

}  // namespace detail

void ZigguratNormal::fill(Xoshiro256pp& rng, std::span<double> out) noexcept {
  for (auto& x : out) x = detail::ziggurat_draw(rng);
}

void ZigguratNormal::fill_packs(std::span<Xoshiro256pp* const> rngs,
                                std::size_t n, double* out) noexcept {
  // Stream p starts pack p/4, whose draws begin at out + 4*n*(p/4).
  std::size_t p = 0;
  if (simd::active()) {
#if PTRNG_SIMD_AVX2
    if (simd::avx512_active())
      for (; p + 8 <= rngs.size(); p += 8)
        fill_lanes8_kernel(rngs.data() + p, n, out + p * n);
#endif
    for (; p < rngs.size(); p += 4)
      fill_lanes4_kernel(rngs.data() + p, n, out + p * n);
    return;
  }
  // Scalar fallback: same layout, same per-lane streams — the reference
  // the kernels are differentially tested against.
  for (; p < rngs.size(); p += 4) {
    double* const pack = out + p * n;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < 4; ++l)
        pack[4 * i + l] = detail::ziggurat_draw(*rngs[p + l]);
  }
}

}  // namespace ptrng
