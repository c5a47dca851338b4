// Kasdin–Walter 1/f^alpha noise: white noise filtered by the fractional
// integrator (1 - z^{-1})^{-alpha/2}, truncated to a finite impulse
// response. Reference-quality spectra (exact discrete PSD known in closed
// form); generation is block-based via FFT overlap-save so long streams
// stay O(log L) per sample amortized.
//
// Exact two-sided PSD: sigma_w^2 / fs * (2*sin(pi*f/fs))^{-alpha}.
// For alpha = 1 and f << fs this is sigma_w^2/(2*pi*f), so a target
// two-sided PSD A/f needs sigma_w^2 = 2*pi*A.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_source.hpp"
#include "noise/sampler_policy.hpp"

namespace ptrng::noise {

/// Streaming 1/f^alpha generator (0 < alpha <= 2).
class KasdinFlicker final : public NoiseSource {
 public:
  struct Config {
    double alpha = 1.0;        ///< spectral exponent of 1/f^alpha
    double sigma_w = 1.0;      ///< driving white-noise stddev
    double fs = 1.0;           ///< sample rate [Hz]
    std::size_t fir_length = 1 << 14;  ///< impulse-response truncation
    std::size_t block = 1 << 13;       ///< generation block size
    std::uint64_t seed = 0x4a5d17;
    /// Sampler policy for the driving white noise (§5 "Sampler
    /// policy"); Polar reproduces the pre-PR-5 streams bit-for-bit.
    SamplerPolicy sampler{};
  };

  explicit KasdinFlicker(const Config& config);

  double next() override;

  /// Batched generation: drains the FIFO remainder, then convolves whole
  /// blocks directly into `out` (in bounded rounds of at most 64 blocks)
  /// with the per-block overlap-save FFTs split across the global thread
  /// pool. The white inputs of each round are drawn sequentially first,
  /// so the output stream is sample-for-sample identical to repeated
  /// next() calls, for any thread count.
  void fill(std::span<double> out) override;
  [[nodiscard]] double sample_rate() const override { return fs_; }

  /// Exact discrete-time two-sided PSD of the *untruncated* filter.
  [[nodiscard]] double analytic_psd(double f) const;

  /// The driving variance needed so the alpha=1 PSD equals amplitude/f.
  [[nodiscard]] static double sigma_w_for_amplitude(double amplitude);

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::size_t fir_length() const noexcept { return h_.size(); }

 private:
  void generate_block();
  /// Overlap-save convolution of one segment: `in` holds the last
  /// fir_length-1 inputs followed by out.size() fresh ones; writes the
  /// fully-overlapped part. Thread-safe (reads only h_/ker_fft_).
  void convolve_segment(std::span<const double> in,
                        std::span<double> out) const;

  double alpha_;
  double sigma_w_;
  double fs_;
  std::size_t block_;
  std::vector<double> h_;        ///< truncated impulse response
  std::vector<std::complex<double>> ker_fft_;  ///< FFT of h_, padded
  std::vector<double> history_;  ///< last fir_length-1 white inputs
  std::vector<double> ready_;    ///< generated output queue (FIFO)
  std::size_t read_pos_ = 0;
  GaussianSampler gauss_;
};

}  // namespace ptrng::noise
