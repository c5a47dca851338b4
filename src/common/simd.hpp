// Portable fixed-width SIMD layer: 4-lane f64/i64 vectors with three
// compile-time backends — AVX2 on x86-64, NEON on aarch64, and a
// loop-based scalar fallback — behind one API, so the hot kernels
// (ziggurat lanes, AR(1) packs) are written
// once against `f64x4`/`i64x4` and compile everywhere.
//
// Backend selection and bit-identity rules:
//
//  * Exactly one of PTRNG_SIMD_AVX2 / PTRNG_SIMD_NEON /
//    PTRNG_SIMD_SCALAR is defined to 1. Configuring with
//    -DPTRNG_SIMD=OFF (which defines PTRNG_SIMD_DISABLED) forces the
//    scalar backend regardless of the host ISA.
//  * On AVX2 the vector helpers carry function-level
//    __attribute__((target("avx2"))) instead of a global -mavx2, so the
//    library binary stays runnable on any x86-64 and — crucially — the
//    surrounding scalar code keeps the baseline ISA: no FMA contraction
//    ever changes scalar results. Kernels must NOT use fused
//    multiply-add either (mul + mul + add only), or SIMD output would
//    diverge from the scalar fallback by one rounding.
//  * Every kernel built on this layer must stay bit-identical to its
//    scalar fallback (docs/ARCHITECTURE.md §5 "SIMD rules"); the
//    runtime switches below exist so tests and bench preambles can
//    prove it in-process.
//
// Runtime dispatch: active() is the one question kernels ask. It is
// true only when (a) a vector backend was compiled in, (b) the CPU
// supports it, (c) the environment does not say PTRNG_SIMD=off, and
// (d) no ScopedForceScalar/force_scalar(true) is in effect. The one
// 8-lane kernel (the ziggurat's, common/ziggurat.cpp) also asks
// avx512_active(): active() and a CPU with AVX-512F/DQ/VL.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if !defined(PTRNG_SIMD_DISABLED) && (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(_M_X64))
#define PTRNG_SIMD_AVX2 1
#include <immintrin.h>
// Per-function ISA targeting: the helpers below (and any kernel calling
// them) compile for AVX2 without changing the translation unit's flags.
#define PTRNG_SIMD_TARGET __attribute__((target("avx2")))
// The 8-lane kernels' targeting. AVX-512F brings FMA with it in GCC, and
// no target string takes it back out: such a kernel must keep its own
// arithmetic free of mul-then-add and call its scalar code out of line.
#define PTRNG_SIMD_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512vl")))
#elif !defined(PTRNG_SIMD_DISABLED) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(__aarch64__)
#define PTRNG_SIMD_NEON 1
#include <arm_neon.h>
#define PTRNG_SIMD_TARGET
#else
#define PTRNG_SIMD_SCALAR 1
#define PTRNG_SIMD_TARGET
#endif

namespace ptrng::simd {

/// Fixed vector width of the layer; every backend models 4 lanes.
inline constexpr std::size_t kLanes = 4;

/// Name of the backend compiled into this binary: "avx2", "neon" or
/// "scalar". (Out of line: anchors simd.cpp in the build-sanity link.)
[[nodiscard]] const char* compiled_backend() noexcept;

namespace detail {
/// Backend compiled in, CPU support and the PTRNG_SIMD environment
/// switch (simd.cpp); probed once, on the first active() call.
[[nodiscard]] bool probe_enabled() noexcept;
/// CPU support for AVX-512F/DQ/VL on the AVX2 backend (simd.cpp);
/// probed once, on the first avx512_active() call.
[[nodiscard]] bool probe_avx512() noexcept;
/// In-process differential-test override (force_scalar).
inline std::atomic<bool> g_force_scalar{false};
}  // namespace detail

/// True when vector kernels may run: vector backend compiled in, CPU
/// support verified at runtime, environment switch PTRNG_SIMD not
/// "off"/"0"/"scalar"/"false", and no force_scalar(true) in effect.
/// Inline: the per-call kernels ask it on every bank call.
[[nodiscard]] inline bool active() noexcept {
  static const bool enabled = detail::probe_enabled();
  return enabled && !detail::g_force_scalar.load(std::memory_order_relaxed);
}

/// True when active() and the CPU runs AVX-512F/DQ/VL: the gate of the
/// 8-lane kernels, which only the AVX2 backend compiles. The scalar
/// switches (PTRNG_SIMD=off, force_scalar) turn it off with active().
[[nodiscard]] inline bool avx512_active() noexcept {
  static const bool supported = detail::probe_avx512();
  return supported && active();
}

/// In-process override used by differential tests and bench preambles:
/// force_scalar(true) makes active() return false until reset.
inline void force_scalar(bool on) noexcept {
  detail::g_force_scalar.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool scalar_forced() noexcept {
  return detail::g_force_scalar.load(std::memory_order_relaxed);
}

/// RAII guard around force_scalar for SIMD-vs-scalar differential runs.
class ScopedForceScalar {
 public:
  ScopedForceScalar() noexcept : previous_(scalar_forced()) {
    force_scalar(true);
  }
  ~ScopedForceScalar() { force_scalar(previous_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------
#if PTRNG_SIMD_AVX2

struct f64x4 {
  __m256d v;
};
struct i64x4 {
  __m256i v;
};

PTRNG_SIMD_TARGET inline f64x4 load4(const double* p) noexcept {
  return {_mm256_loadu_pd(p)};
}
PTRNG_SIMD_TARGET inline void store4(double* p, f64x4 a) noexcept {
  _mm256_storeu_pd(p, a.v);
}
PTRNG_SIMD_TARGET inline f64x4 splat4(double x) noexcept {
  return {_mm256_set1_pd(x)};
}
PTRNG_SIMD_TARGET inline f64x4 operator+(f64x4 a, f64x4 b) noexcept {
  return {_mm256_add_pd(a.v, b.v)};
}
PTRNG_SIMD_TARGET inline f64x4 operator-(f64x4 a, f64x4 b) noexcept {
  return {_mm256_sub_pd(a.v, b.v)};
}
PTRNG_SIMD_TARGET inline f64x4 operator*(f64x4 a, f64x4 b) noexcept {
  return {_mm256_mul_pd(a.v, b.v)};
}
/// In-place 4x4 transpose: rows (a,b,c,d) become columns.
PTRNG_SIMD_TARGET inline void transpose4(f64x4& a, f64x4& b, f64x4& c,
                                         f64x4& d) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(a.v, b.v);
  const __m256d t1 = _mm256_unpackhi_pd(a.v, b.v);
  const __m256d t2 = _mm256_unpacklo_pd(c.v, d.v);
  const __m256d t3 = _mm256_unpackhi_pd(c.v, d.v);
  a.v = _mm256_permute2f128_pd(t0, t2, 0x20);
  b.v = _mm256_permute2f128_pd(t1, t3, 0x20);
  c.v = _mm256_permute2f128_pd(t0, t2, 0x31);
  d.v = _mm256_permute2f128_pd(t1, t3, 0x31);
}

PTRNG_SIMD_TARGET inline i64x4 load4(const std::uint64_t* p) noexcept {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
PTRNG_SIMD_TARGET inline void store4(std::uint64_t* p, i64x4 a) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}
PTRNG_SIMD_TARGET inline i64x4 splat4(std::uint64_t x) noexcept {
  return {_mm256_set1_epi64x(static_cast<long long>(x))};
}
PTRNG_SIMD_TARGET inline i64x4 operator+(i64x4 a, i64x4 b) noexcept {
  return {_mm256_add_epi64(a.v, b.v)};
}
PTRNG_SIMD_TARGET inline i64x4 operator^(i64x4 a, i64x4 b) noexcept {
  return {_mm256_xor_si256(a.v, b.v)};
}
PTRNG_SIMD_TARGET inline i64x4 operator|(i64x4 a, i64x4 b) noexcept {
  return {_mm256_or_si256(a.v, b.v)};
}
PTRNG_SIMD_TARGET inline i64x4 operator&(i64x4 a, i64x4 b) noexcept {
  return {_mm256_and_si256(a.v, b.v)};
}
template <int K>
PTRNG_SIMD_TARGET inline i64x4 shl(i64x4 a) noexcept {
  return {_mm256_slli_epi64(a.v, K)};
}
template <int K>
PTRNG_SIMD_TARGET inline i64x4 shr(i64x4 a) noexcept {
  return {_mm256_srli_epi64(a.v, K)};
}
template <int K>
PTRNG_SIMD_TARGET inline i64x4 rotl(i64x4 a) noexcept {
  return shl<K>(a) | shr<64 - K>(a);
}
/// 4-bit mask, bit l set iff a[l] < b[l] as SIGNED 64-bit — callers
/// must keep values below 2^63 (the ziggurat compares 52-bit numbers).
PTRNG_SIMD_TARGET inline int lt_mask_i64(i64x4 a, i64x4 b) noexcept {
  return _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(b.v, a.v)));
}
/// a with lane l (0..3) replaced by x: a blend under a lane-index
/// compare, so the other lanes stay in the register.
PTRNG_SIMD_TARGET inline i64x4 set_lane(i64x4 a, std::size_t l,
                                        std::uint64_t x) noexcept {
  const __m256i hit =
      _mm256_cmpeq_epi64(_mm256_setr_epi64x(0, 1, 2, 3),
                         _mm256_set1_epi64x(static_cast<long long>(l)));
  return {_mm256_blendv_epi8(
      a.v, _mm256_set1_epi64x(static_cast<long long>(x)), hit)};
}
PTRNG_SIMD_TARGET inline f64x4 gather4(const double* base,
                                       i64x4 idx) noexcept {
  return {_mm256_i64gather_pd(base, idx.v, 8)};
}
PTRNG_SIMD_TARGET inline i64x4 gather4(const std::uint64_t* base,
                                       i64x4 idx) noexcept {
  return {_mm256_i64gather_epi64(reinterpret_cast<const long long*>(base),
                                 idx.v, 8)};
}
/// Exact u64 -> f64 for values < 2^52 (the ziggurat magnitude range):
/// OR in the exponent of 2^52 and subtract it — both steps exact, so
/// the result matches the scalar static_cast<double> bit for bit.
PTRNG_SIMD_TARGET inline f64x4 u52_to_f64(i64x4 a) noexcept {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d biased = _mm256_castsi256_pd(_mm256_or_si256(a.v, magic));
  return {_mm256_sub_pd(biased, _mm256_set1_pd(4503599627370496.0))};
}
/// OR raw bits into the doubles (sign injection, as the scalar
/// apply_sign does via bit_cast).
PTRNG_SIMD_TARGET inline f64x4 or_bits(f64x4 x, i64x4 bits) noexcept {
  return {_mm256_or_pd(x.v, _mm256_castsi256_pd(bits.v))};
}

// ---------------------------------------------------------------------
// NEON backend (aarch64): each 4-lane vector is a pair of 128-bit
// halves. All operations are exact integer/IEEE ops, so lane results
// match the scalar fallback bit for bit.
// ---------------------------------------------------------------------
#elif PTRNG_SIMD_NEON

struct f64x4 {
  float64x2_t lo, hi;
};
struct i64x4 {
  uint64x2_t lo, hi;
};

inline f64x4 load4(const double* p) noexcept {
  return {vld1q_f64(p), vld1q_f64(p + 2)};
}
inline void store4(double* p, f64x4 a) noexcept {
  vst1q_f64(p, a.lo);
  vst1q_f64(p + 2, a.hi);
}
inline f64x4 splat4(double x) noexcept {
  return {vdupq_n_f64(x), vdupq_n_f64(x)};
}
inline f64x4 operator+(f64x4 a, f64x4 b) noexcept {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline f64x4 operator-(f64x4 a, f64x4 b) noexcept {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline f64x4 operator*(f64x4 a, f64x4 b) noexcept {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline void transpose4(f64x4& a, f64x4& b, f64x4& c, f64x4& d) noexcept {
  const float64x2_t c0l = vzip1q_f64(a.lo, b.lo);
  const float64x2_t c0h = vzip1q_f64(c.lo, d.lo);
  const float64x2_t c1l = vzip2q_f64(a.lo, b.lo);
  const float64x2_t c1h = vzip2q_f64(c.lo, d.lo);
  const float64x2_t c2l = vzip1q_f64(a.hi, b.hi);
  const float64x2_t c2h = vzip1q_f64(c.hi, d.hi);
  const float64x2_t c3l = vzip2q_f64(a.hi, b.hi);
  const float64x2_t c3h = vzip2q_f64(c.hi, d.hi);
  a = {c0l, c0h};
  b = {c1l, c1h};
  c = {c2l, c2h};
  d = {c3l, c3h};
}

inline i64x4 load4(const std::uint64_t* p) noexcept {
  return {vld1q_u64(p), vld1q_u64(p + 2)};
}
inline void store4(std::uint64_t* p, i64x4 a) noexcept {
  vst1q_u64(p, a.lo);
  vst1q_u64(p + 2, a.hi);
}
inline i64x4 splat4(std::uint64_t x) noexcept {
  return {vdupq_n_u64(x), vdupq_n_u64(x)};
}
inline i64x4 operator+(i64x4 a, i64x4 b) noexcept {
  return {vaddq_u64(a.lo, b.lo), vaddq_u64(a.hi, b.hi)};
}
inline i64x4 operator^(i64x4 a, i64x4 b) noexcept {
  return {veorq_u64(a.lo, b.lo), veorq_u64(a.hi, b.hi)};
}
inline i64x4 operator|(i64x4 a, i64x4 b) noexcept {
  return {vorrq_u64(a.lo, b.lo), vorrq_u64(a.hi, b.hi)};
}
inline i64x4 operator&(i64x4 a, i64x4 b) noexcept {
  return {vandq_u64(a.lo, b.lo), vandq_u64(a.hi, b.hi)};
}
template <int K>
inline i64x4 shl(i64x4 a) noexcept {
  return {vshlq_n_u64(a.lo, K), vshlq_n_u64(a.hi, K)};
}
template <int K>
inline i64x4 shr(i64x4 a) noexcept {
  return {vshrq_n_u64(a.lo, K), vshrq_n_u64(a.hi, K)};
}
template <int K>
inline i64x4 rotl(i64x4 a) noexcept {
  return shl<K>(a) | shr<64 - K>(a);
}
inline int lt_mask_i64(i64x4 a, i64x4 b) noexcept {
  const uint64x2_t mlo = vcltq_s64(vreinterpretq_s64_u64(a.lo),
                                   vreinterpretq_s64_u64(b.lo));
  const uint64x2_t mhi = vcltq_s64(vreinterpretq_s64_u64(a.hi),
                                   vreinterpretq_s64_u64(b.hi));
  return static_cast<int>((vgetq_lane_u64(mlo, 0) >> 63) |
                          ((vgetq_lane_u64(mlo, 1) >> 63) << 1) |
                          ((vgetq_lane_u64(mhi, 0) >> 63) << 2) |
                          ((vgetq_lane_u64(mhi, 1) >> 63) << 3));
}
inline i64x4 set_lane(i64x4 a, std::size_t l, std::uint64_t x) noexcept {
  // Lane-index compare and bit select: vsetq_lane needs a constant lane.
  const uint64x2_t lane = vdupq_n_u64(l);
  const uint64x2_t value = vdupq_n_u64(x);
  const uint64x2_t lo_idx = {0, 1};
  const uint64x2_t hi_idx = {2, 3};
  return {vbslq_u64(vceqq_u64(lo_idx, lane), value, a.lo),
          vbslq_u64(vceqq_u64(hi_idx, lane), value, a.hi)};
}
inline f64x4 gather4(const double* base, i64x4 idx) noexcept {
  return {
      float64x2_t{base[vgetq_lane_u64(idx.lo, 0)],
                  base[vgetq_lane_u64(idx.lo, 1)]},
      float64x2_t{base[vgetq_lane_u64(idx.hi, 0)],
                  base[vgetq_lane_u64(idx.hi, 1)]},
  };
}
inline i64x4 gather4(const std::uint64_t* base, i64x4 idx) noexcept {
  return {
      uint64x2_t{base[vgetq_lane_u64(idx.lo, 0)],
                 base[vgetq_lane_u64(idx.lo, 1)]},
      uint64x2_t{base[vgetq_lane_u64(idx.hi, 0)],
                 base[vgetq_lane_u64(idx.hi, 1)]},
  };
}
inline f64x4 u52_to_f64(i64x4 a) noexcept {
  // vcvtq_f64_s64 is correctly rounded, hence exact below 2^52 — the
  // same value as the scalar static_cast<double>(int64_t).
  return {vcvtq_f64_s64(vreinterpretq_s64_u64(a.lo)),
          vcvtq_f64_s64(vreinterpretq_s64_u64(a.hi))};
}
inline f64x4 or_bits(f64x4 x, i64x4 bits) noexcept {
  return {vreinterpretq_f64_u64(
              vorrq_u64(vreinterpretq_u64_f64(x.lo), bits.lo)),
          vreinterpretq_f64_u64(
              vorrq_u64(vreinterpretq_u64_f64(x.hi), bits.hi))};
}

// ---------------------------------------------------------------------
// Scalar fallback: plain arrays and loops. This is both the portable
// backend and the reference the vector backends are differentially
// tested against (PTRNG_SIMD=off / -DPTRNG_SIMD=OFF build the kernels
// against exactly this code).
// ---------------------------------------------------------------------
#else

struct f64x4 {
  double v[kLanes];
};
struct i64x4 {
  std::uint64_t v[kLanes];
};

inline f64x4 load4(const double* p) noexcept {
  return {{p[0], p[1], p[2], p[3]}};
}
inline void store4(double* p, f64x4 a) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l) p[l] = a.v[l];
}
inline f64x4 splat4(double x) noexcept { return {{x, x, x, x}}; }
inline f64x4 operator+(f64x4 a, f64x4 b) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline f64x4 operator-(f64x4 a, f64x4 b) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline f64x4 operator*(f64x4 a, f64x4 b) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
  return r;
}
inline void transpose4(f64x4& a, f64x4& b, f64x4& c, f64x4& d) noexcept {
  f64x4* rows[kLanes] = {&a, &b, &c, &d};
  for (std::size_t i = 0; i < kLanes; ++i)
    for (std::size_t j = i + 1; j < kLanes; ++j) {
      const double t = rows[i]->v[j];
      rows[i]->v[j] = rows[j]->v[i];
      rows[j]->v[i] = t;
    }
}

inline i64x4 load4(const std::uint64_t* p) noexcept {
  return {{p[0], p[1], p[2], p[3]}};
}
inline void store4(std::uint64_t* p, i64x4 a) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l) p[l] = a.v[l];
}
inline i64x4 splat4(std::uint64_t x) noexcept { return {{x, x, x, x}}; }
inline i64x4 operator+(i64x4 a, i64x4 b) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline i64x4 operator^(i64x4 a, i64x4 b) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] ^ b.v[l];
  return r;
}
inline i64x4 operator|(i64x4 a, i64x4 b) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] | b.v[l];
  return r;
}
inline i64x4 operator&(i64x4 a, i64x4 b) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] & b.v[l];
  return r;
}
template <int K>
inline i64x4 shl(i64x4 a) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] << K;
  return r;
}
template <int K>
inline i64x4 shr(i64x4 a) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] >> K;
  return r;
}
template <int K>
inline i64x4 rotl(i64x4 a) noexcept {
  return shl<K>(a) | shr<64 - K>(a);
}
inline int lt_mask_i64(i64x4 a, i64x4 b) noexcept {
  int m = 0;
  for (std::size_t l = 0; l < kLanes; ++l)
    if (static_cast<std::int64_t>(a.v[l]) < static_cast<std::int64_t>(b.v[l]))
      m |= 1 << l;
  return m;
}
inline i64x4 set_lane(i64x4 a, std::size_t l, std::uint64_t x) noexcept {
  a.v[l] = x;
  return a;
}
inline f64x4 gather4(const double* base, i64x4 idx) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = base[idx.v[l]];
  return r;
}
inline i64x4 gather4(const std::uint64_t* base, i64x4 idx) noexcept {
  i64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = base[idx.v[l]];
  return r;
}
inline f64x4 u52_to_f64(i64x4 a) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l)
    r.v[l] = static_cast<double>(static_cast<std::int64_t>(a.v[l]));
  return r;
}
inline f64x4 or_bits(f64x4 x, i64x4 bits) noexcept {
  f64x4 r;
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::uint64_t u;
    __builtin_memcpy(&u, &x.v[l], sizeof u);
    u |= bits.v[l];
    __builtin_memcpy(&r.v[l], &u, sizeof u);
  }
  return r;
}

#endif

}  // namespace ptrng::simd
