// Deterministic pseudo-random number generation for simulations.
//
// The library deliberately does not use std::mt19937/std::normal_distribution
// because their outputs are not guaranteed to be identical across standard
// library implementations; reproducibility of every bench/example table (docs/ARCHITECTURE.md §3)
// depends on a fully specified generator.
//
//  * SplitMix64   — seed expansion (Steele, Lea, Flood 2014)
//  * Xoshiro256pp — main uniform generator (Blackman & Vigna 2019)
//  * GaussianSampler — normal sampler on top of Xoshiro256pp, with a
//    method policy: the 2048-layer ziggurat (common/ziggurat.hpp, the
//    default engine) or the Marsaglia polar method (the pre-PR-5 engine,
//    kept selectable so the old realized streams stay reproducible —
//    see docs/ARCHITECTURE.md §5 "Sampler policy")
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ptrng {

/// SplitMix64: a tiny 64-bit generator used to expand a single seed into the
/// state of larger generators. Passes BigCrush when used standalone.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0: fast, high-quality 64-bit generator with 2^256-1 period.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Xoshiro256pp(std::uint64_t seed = 0x8badf00ddeadbeefULL) noexcept;

  /// Continues from a raw 256-bit state (see state()); no seeding work,
  /// so the SIMD kernels' scalar slow paths can rebuild a lane's
  /// generator per missed draw. The state must not be all zero.
  explicit Xoshiro256pp(const std::array<std::uint64_t, 4>& state) noexcept
      : state_(state) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  /// Next 64 uniformly distributed bits. Inline: every scalar Gaussian
  /// draw and the lane kernels' slow paths call it per word.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as log() argument.
  double uniform_pos() noexcept {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Jump function: advances the state by 2^128 steps, giving independent
  /// parallel subsequences.
  void jump() noexcept;

  /// Raw 256-bit state, for lane-parallel (struct-of-arrays) stepping in
  /// the SIMD kernels and for state spill/reload around their scalar
  /// slow paths. A state restored via set_state continues the exact
  /// word sequence; an all-zero state is invalid (the generator would
  /// stick at zero) and must never be installed.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

namespace detail {

// The ziggurat's fast path (~99.77% of draws), inline so a scalar draw
// costs no call (common/ziggurat.hpp has the scheme). Its tables are
// generated at compile time in ziggurat.cpp and exported here: per
// layer, the integer accept bound and the width scale.
//
// One 64-bit word per attempt: the low kZigguratLayerBits bits pick the
// layer, the next bit is the sign, and the 52 bits above it the
// magnitude. kZigguratLayerBits is the table's one size knob; the layer
// count, the word layout and the table (ziggurat.cpp) all follow it, and
// ziggurat.cpp fails to compile unless ZigguratNormal's (r, V) close a
// table of that size.
inline constexpr unsigned kZigguratLayerBits = 11;
inline constexpr std::size_t kZigguratLayers = std::size_t{1}
                                               << kZigguratLayerBits;
static_assert(kZigguratLayerBits + 1 + 52 <= 64,
              "layer index, sign and 52-bit magnitude must fit one word");

extern const std::array<std::uint64_t, kZigguratLayers> kZigguratAccept;
extern const std::array<double, kZigguratLayers> kZigguratWidth;

/// The layer a word picks: its low kZigguratLayerBits bits.
constexpr std::size_t ziggurat_layer(std::uint64_t bits) noexcept {
  return bits & (kZigguratLayers - 1);
}

/// The word's 52-bit magnitude, from the bits above the sign bit.
constexpr std::uint64_t ziggurat_magnitude(std::uint64_t bits) noexcept {
  return (bits >> (kZigguratLayerBits + 1)) & 0xfffffffffffffULL;
}

/// The word's sign bit, moved to bit 63 so it ORs into a double.
constexpr std::uint64_t ziggurat_sign(std::uint64_t bits) noexcept {
  return (bits >> kZigguratLayerBits) << 63;
}

/// Whether a draw's first word lands under its layer's fast-accept
/// bound; one that does not goes to ziggurat_finish.
inline bool ziggurat_fast_accept(std::uint64_t bits) noexcept {
  return ziggurat_magnitude(bits) < kZigguratAccept[ziggurat_layer(bits)];
}

/// Finishes a ziggurat draw whose first word `bits` missed the fast
/// accept: the exact wedge and tail code (ziggurat.cpp), out of line.
/// Never inlined, so it keeps the baseline ISA even when a lane kernel
/// whose target brings FMA calls it for a missed lane.
[[gnu::noinline]] double ziggurat_finish(Xoshiro256pp& rng,
                                         std::uint64_t bits) noexcept;

/// One N(0,1) ziggurat variate: one 64-bit word, one table lookup and
/// one multiply on the fast path, the sign OR-ed into the double
/// (branch-free).
inline double ziggurat_draw(Xoshiro256pp& rng) noexcept {
  const std::uint64_t bits = rng.next();
  if (ziggurat_fast_accept(bits)) [[likely]] {
    // The magnitude is < 2^52, so the int64_t cast is exact and keeps
    // the conversion on the fast signed cvt path.
    const double x = static_cast<double>(static_cast<std::int64_t>(
                         ziggurat_magnitude(bits))) *
                     kZigguratWidth[ziggurat_layer(bits)];
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) |
                                 ziggurat_sign(bits));
  }
  return ziggurat_finish(rng, bits);
}

}  // namespace detail

/// Standard-normal sampler (mean 0, variance 1) with a selectable
/// engine. Method::Ziggurat (default) is the 2048-layer table-driven
/// sampler; Method::Polar is the Marsaglia polar method (caching the
/// second variate of each pair) that every stream used before PR 5.
/// The two methods realize different streams from the same seed; code
/// that pins seeded expectations must say which method it pinned.
class GaussianSampler {
 public:
  enum class Method : std::uint8_t {
    Ziggurat,  ///< 2048-layer ziggurat (common/ziggurat.hpp) — default
    Polar,     ///< Marsaglia polar — the pre-PR-5 streams, bit-for-bit
  };

  explicit GaussianSampler(std::uint64_t seed = 0x5eedcafef00dULL,
                           Method method = Method::Ziggurat) noexcept
      : rng_(seed), method_(method) {}
  explicit GaussianSampler(Xoshiro256pp rng,
                           Method method = Method::Ziggurat) noexcept
      : rng_(rng), method_(method) {}

  /// One N(0,1) sample. The ziggurat's fast path is inline; its
  /// wedge/tail and the polar method stay out of line.
  double operator()() noexcept {
    if (method_ == Method::Ziggurat) [[likely]]
      return detail::ziggurat_draw(rng_);
    return polar_next();
  }

  /// Batched draws, bit-identical to out.size() operator()() calls on
  /// the same stream: the ziggurat inlines its scalar path across the
  /// block; polar emits pairs straight into the buffer (rejection loop
  /// and log/sqrt pipeline across the block instead of paying a call
  /// per variate).
  void fill(std::span<double> out) noexcept;

  /// Multi-stream batched draws for the SIMD lane kernels: the
  /// samplers (a multiple of 4) advance in lockstep in 4-sampler packs,
  /// written back to back. With n = out.size() / samplers.size(), pack p
  /// sits at out[4*n*p ..], and its out[4*n*p + 4*i + l] is the i-th
  /// draw of samplers[4*p + l]. Each sampler's subsequence is
  /// bit-identical to the same number of operator()() calls on it alone
  /// — samplers own independent streams, so batching across them never
  /// reorders any single stream. Ziggurat samplers ride
  /// ZigguratNormal::fill_packs (8-lane AVX-512 for pairs of packs, then
  /// 4-lane, when simd::active()); Polar always takes the scalar path
  /// (its rejection loop has data-dependent stream consumption per
  /// lane).
  static void fill_packs(std::span<GaussianSampler> samplers,
                         std::span<double> out) noexcept;

  /// One N(mean, stddev^2) sample.
  double operator()(double mean, double stddev) noexcept {
    return mean + stddev * (*this)();
  }

  /// Access to the underlying uniform generator (e.g. for mixing streams).
  Xoshiro256pp& uniform_rng() noexcept { return rng_; }

  /// The engine this sampler draws with.
  [[nodiscard]] Method method() const noexcept { return method_; }

 private:
  double polar_next() noexcept;
  void polar_fill(std::span<double> out) noexcept;

  Xoshiro256pp rng_;
  double cached_ = 0.0;
  bool has_cached_ = false;
  Method method_;
};

}  // namespace ptrng
