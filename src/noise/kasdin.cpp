#include "noise/kasdin.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "fft/fft.hpp"

namespace ptrng::noise {

KasdinFlicker::KasdinFlicker(const Config& config)
    : alpha_(config.alpha),
      sigma_w_(config.sigma_w),
      fs_(config.fs),
      block_(config.block),
      gauss_(config.seed, config.sampler.gauss_method) {
  PTRNG_EXPECTS(alpha_ > 0.0 && alpha_ <= 2.0);
  PTRNG_EXPECTS(sigma_w_ >= 0.0);
  PTRNG_EXPECTS(fs_ > 0.0);
  PTRNG_EXPECTS(config.fir_length >= 16);
  PTRNG_EXPECTS(block_ >= 16);

  // Kasdin's recursion for the impulse response of (1-z^{-1})^{-alpha/2}:
  //   h_0 = 1;  h_k = h_{k-1} * (k - 1 + alpha/2) / k
  h_.resize(config.fir_length);
  h_[0] = 1.0;
  for (std::size_t k = 1; k < h_.size(); ++k)
    h_[k] = h_[k - 1] *
            (static_cast<double>(k) - 1.0 + alpha_ / 2.0) /
            static_cast<double>(k);

  // FFT of the zero-padded kernel, shared by every block convolution.
  const std::size_t n = next_pow2(h_.size() - 1 + block_);
  ker_fft_.assign(n, 0.0);
  for (std::size_t i = 0; i < h_.size(); ++i) ker_fft_[i] = h_[i];
  fft::transform(ker_fft_, false);

  history_.assign(h_.size() - 1, 0.0);
  // Prime the history with white noise so the process starts "aged" by one
  // full filter memory instead of at the zero state.
  for (auto& x : history_) x = sigma_w_ * gauss_();
}

void KasdinFlicker::convolve_segment(std::span<const double> in,
                                     std::span<double> out) const {
  const std::size_t l = h_.size();
  const std::size_t n = ker_fft_.size();
  PTRNG_EXPECTS(in.size() == l - 1 + out.size() && out.size() <= block_);

  std::vector<std::complex<double>> sig(n);
  for (std::size_t i = 0; i < in.size(); ++i) sig[i] = in[i];
  fft::transform(sig, false);
  for (std::size_t i = 0; i < n; ++i) sig[i] *= ker_fft_[i];
  const auto res = fft::ifft(std::move(sig));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = res[l - 1 + i].real();
}

void KasdinFlicker::generate_block() {
  // Overlap-save convolution: input = [history | fresh white], output keeps
  // only the fully-overlapped part (length = block_).
  const std::size_t l = h_.size();

  std::vector<double> input(l - 1 + block_);
  std::copy(history_.begin(), history_.end(), input.begin());
  for (std::size_t i = 0; i < block_; ++i)
    input[l - 1 + i] = sigma_w_ * gauss_();

  ready_.resize(block_);
  convolve_segment(input, ready_);
  read_pos_ = 0;

  // New history = last l-1 inputs (works for both block_ >= l-1 and the
  // short-block case, since `input` starts with the old history).
  std::copy(input.end() - static_cast<std::ptrdiff_t>(l - 1), input.end(),
            history_.begin());
}

double KasdinFlicker::next() {
  if (read_pos_ >= ready_.size()) generate_block();
  return ready_[read_pos_++];
}

void KasdinFlicker::fill(std::span<double> out) {
  // Drain whatever the FIFO still holds so the stream position matches
  // what a sequence of next() calls would see.
  std::size_t i = 0;
  while (read_pos_ < ready_.size() && i < out.size())
    out[i++] = ready_[read_pos_++];

  // Fast path: convolve whole blocks straight into `out`, bypassing the
  // FIFO. All white inputs of a round are drawn sequentially up front
  // (identical order to the block-by-block recursion), which makes the
  // per-block convolutions data-independent — they fan out across the
  // pool and the result is bit-identical for any PTRNG_THREADS. Rounds
  // are capped at kMaxBatch blocks so the staging buffer stays bounded
  // instead of doubling the working set of a multi-million-sample fill.
  constexpr std::size_t kMaxBatch = 64;
  const std::size_t l = h_.size();
  std::size_t whole = (out.size() - i) / block_;
  while (whole != 0) {
    const std::size_t batch = std::min(whole, kMaxBatch);
    const std::size_t total = batch * block_;
    std::vector<double> input(l - 1 + total);
    std::copy(history_.begin(), history_.end(), input.begin());
    for (std::size_t j = 0; j < total; ++j)
      input[l - 1 + j] = sigma_w_ * gauss_();

    double* const base = out.data() + i;
    parallel_for(0, batch, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k)
        convolve_segment(
            std::span<const double>(input.data() + k * block_, l - 1 + block_),
            std::span<double>(base + k * block_, block_));
    });

    std::copy(input.end() - static_cast<std::ptrdiff_t>(l - 1), input.end(),
              history_.begin());
    i += total;
    whole -= batch;
  }

  // Tail shorter than one block: let the FIFO machinery handle it.
  for (; i < out.size(); ++i) out[i] = next();
}

double KasdinFlicker::analytic_psd(double f) const {
  PTRNG_EXPECTS(f > 0.0 && f <= fs_ / 2.0);
  const double s = 2.0 * std::sin(constants::pi * f / fs_);
  return sigma_w_ * sigma_w_ / fs_ * std::pow(s, -alpha_);
}

double KasdinFlicker::sigma_w_for_amplitude(double amplitude) {
  PTRNG_EXPECTS(amplitude >= 0.0);
  return std::sqrt(constants::two_pi * amplitude);
}

}  // namespace ptrng::noise
