// 256-layer Marsaglia–Tsang ziggurat sampler for the standard normal.
//
// The table-driven rejection scheme replaces the Marsaglia polar loop's
// per-draw log/sqrt with one 64-bit draw, one table lookup, and one
// multiply on ~98.5% of draws: the low 8 bits pick a layer, bit 8 the
// sign, and the top 52 bits the magnitude. The remaining draws split
// between the wedge test (one exp) and the exact Marsaglia tail beyond
// r = 3.6541...; the realized distribution is exact, not approximate.
//
// The layer tables (per-layer integer accept bounds, width scales, and
// density ordinates) are generated at COMPILE TIME from the published
// (r, V) constants via consteval exp/log/sqrt — no static initializers,
// no run-to-run or platform drift in the tables themselves.
//
// Like the rest of common/rng.hpp, the sampler consumes raw
// Xoshiro256pp output, so streams are fully specified by the seed
// (docs/ARCHITECTURE.md §3). GaussianSampler wraps this class behind
// GaussianSampler::Method::Ziggurat (the default engine since PR 5).
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace ptrng {

/// Standard-normal sampler (mean 0, variance 1) using the 256-layer
/// ziggurat; ~2-3x faster than the Marsaglia polar method.
class ZigguratNormal {
 public:
  explicit ZigguratNormal(std::uint64_t seed = 0x5eedcafef00dULL) noexcept
      : rng_(seed) {}
  explicit ZigguratNormal(Xoshiro256pp rng) noexcept : rng_(rng) {}

  /// One N(0,1) sample.
  double operator()() noexcept { return draw(rng_); }

  /// Batched draws, bit-identical to out.size() operator()() calls on
  /// the same stream (the ziggurat keeps no cross-draw state, so the
  /// batch is just the scalar path inlined across the block).
  void fill(std::span<double> out) noexcept { fill(rng_, out); }

  /// One variate from an external uniform stream — the building block
  /// GaussianSampler dispatches to. The fast path is inline
  /// (detail::ziggurat_draw in common/rng.hpp).
  static double draw(Xoshiro256pp& rng) noexcept {
    return detail::ziggurat_draw(rng);
  }

  /// Batched draws from an external uniform stream, bit-identical to
  /// out.size() draw() calls.
  static void fill(Xoshiro256pp& rng, std::span<double> out) noexcept;

  /// Lane-parallel draws over rngs.size() streams, a multiple of 4, in
  /// 4-stream packs written back to back: pack p at out + 4*n*p, its
  /// draw i of lane l at 4*i + l, the i-th draw of *rngs[4*p + l]. Each
  /// lane is bit-identical to n draw() calls on that stream alone. When
  /// simd::active(), pairs of packs run through the 8-lane AVX-512
  /// kernel if the CPU has AVX-512F/DQ/VL, and the rest through the
  /// 4-lane kernel; both step the xoshiro states struct-of-arrays
  /// through the vectorized fast path (~98.5% accept per lane), and a
  /// lane that misses it finishes its draw through the exact scalar
  /// wedge/tail code on its own stream. Otherwise every draw is scalar.
  static void fill_packs(std::span<Xoshiro256pp* const> rngs, std::size_t n,
                         double* out) noexcept;

  /// Access to the underlying uniform generator (e.g. for mixing streams).
  Xoshiro256pp& uniform_rng() noexcept { return rng_; }

 private:
  Xoshiro256pp rng_;
};

}  // namespace ptrng
