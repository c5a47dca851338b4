// One sampler-policy knob for the whole noise/oscillator layer. The
// Gaussian-engine choice (docs/ARCHITECTURE.md §5 "Sampler policy") is
// ONE value type passed by value through every generator and oscillator
// config, so a new sampler knob extends this struct instead of
// multiplying across Config structs and constructor signatures.
#pragma once

#include "common/rng.hpp"

namespace ptrng::noise {

/// Sampling policy shared by every noise generator and oscillator
/// config. Passed by value; extend here (not per-Config) when a new
/// sampler knob appears.
struct SamplerPolicy {
  /// Gaussian engine: Ziggurat (default) or Polar (the pre-PR-5
  /// streams, bit-for-bit — see §5 "Sampler policy").
  GaussianSampler::Method gauss_method = GaussianSampler::Method::Ziggurat;
};

}  // namespace ptrng::noise
