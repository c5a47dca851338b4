// White Gaussian noise — the discrete-time image of thermal (Johnson)
// noise. Two-sided PSD: sigma^2 / fs, flat over [-fs/2, fs/2].
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "noise/noise_source.hpp"
#include "noise/sampler_policy.hpp"

namespace ptrng::noise {

/// iid N(0, sigma^2) samples at rate fs.
class WhiteGaussianNoise final : public NoiseSource {
 public:
  /// sigma: per-sample standard deviation; fs: sample rate [Hz].
  /// `sampler` selects the sampler policy (docs/ARCHITECTURE.md §5
  /// "Sampler policy"); Polar reproduces the pre-PR-5 streams.
  WhiteGaussianNoise(double sigma, double fs, std::uint64_t seed,
                     SamplerPolicy sampler = {});

  double next() override { return sigma_ * gauss_(); }

  /// Batched fast path: same stream as next(), minus the per-sample
  /// virtual dispatch (iid draws, so batching is trivially bit-identical).
  void fill(std::span<double> out) override {
    for (auto& x : out) x = sigma_ * gauss_();
  }

  [[nodiscard]] double sample_rate() const override { return fs_; }

  /// Per-sample standard deviation.
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

  /// Two-sided PSD level (constant in f): sigma^2/fs.
  [[nodiscard]] double psd_two_sided() const noexcept {
    return sigma_ * sigma_ / fs_;
  }

 private:
  double sigma_;
  double fs_;
  GaussianSampler gauss_;
};

}  // namespace ptrng::noise
