// Voss–McCartney pink-noise generator: one of the oldest 1/f algorithms
// (update one of log2(N) white generators per sample by trailing-zero
// count). Cheap and popular, but its PSD is a stair-step approximation —
// kept as an ablation baseline against the calibrated generators.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_source.hpp"
#include "noise/sampler_policy.hpp"

namespace ptrng::noise {

/// Classic Voss–McCartney pink noise with `rows` octave generators.
class VossMcCartney final : public NoiseSource {
 public:
  /// `sampler` selects the sampler policy (docs/ARCHITECTURE.md §5
  /// "Sampler policy"); Polar reproduces the pre-PR-5 streams.
  VossMcCartney(std::size_t rows, double fs, std::uint64_t seed,
                SamplerPolicy sampler = {});

  double next() override;
  [[nodiscard]] double sample_rate() const override { return fs_; }
  [[nodiscard]] std::size_t rows() const noexcept { return values_.size(); }

 private:
  double fs_;
  std::vector<double> values_;
  std::uint64_t counter_ = 0;
  GaussianSampler gauss_;
  double white_ = 0.0;
  double running_sum_ = 0.0;
};

}  // namespace ptrng::noise
