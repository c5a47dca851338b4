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

  /// Four-stream lane-parallel draws: out[i*4 + l] = the i-th draw
  /// from *rngs[l], with each lane bit-identical to n draw() calls on
  /// that stream alone. When simd::active(), the four xoshiro states
  /// step struct-of-arrays through the vectorized fast path (one
  /// gather + compare per 4 draws, ~98.5% all-lane accept); lanes that
  /// miss the fast accept spill their state and finish the draw through
  /// the exact scalar wedge/tail code, so acceptance logic and stream
  /// consumption per lane never diverge from the scalar sampler.
  static void fill_lanes4(const std::array<Xoshiro256pp*, 4>& rngs,
                          std::size_t n, double* out) noexcept;

  /// Access to the underlying uniform generator (e.g. for mixing streams).
  Xoshiro256pp& uniform_rng() noexcept { return rng_; }

 private:
  Xoshiro256pp rng_;
};

}  // namespace ptrng
