#include "noise/spectral_synthesis.hpp"

#include <cmath>
#include <complex>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace ptrng::noise {

std::vector<double> synthesize_from_psd(
    const std::function<double(double)>& psd_two_sided, double fs,
    std::size_t n, std::uint64_t seed, SamplerPolicy sampler) {
  PTRNG_EXPECTS(fs > 0.0);
  PTRNG_EXPECTS(n >= 8);
  const std::size_t size = next_pow2(n);
  const double df = fs / static_cast<double>(size);

  GaussianSampler gauss(seed, sampler.gauss_method);
  std::vector<std::complex<double>> spec(size);
  spec[0] = 0.0;  // zero-mean output
  // Periodogram convention: E|X_k|^2 = S_two(f_k) * N * fs.
  for (std::size_t k = 1; k < size / 2; ++k) {
    const double f = df * static_cast<double>(k);
    const double s = psd_two_sided(f);
    PTRNG_EXPECTS(s >= 0.0);
    const double mag = std::sqrt(s * static_cast<double>(size) * fs / 2.0);
    spec[k] = std::complex<double>(mag * gauss(), mag * gauss());
    spec[size - k] = std::conj(spec[k]);
  }
  {
    const double f_nyq = fs / 2.0;
    const double s = psd_two_sided(f_nyq);
    spec[size / 2] =
        std::sqrt(s * static_cast<double>(size) * fs) * gauss();
  }

  auto x = fft::ifft(std::move(spec));
  std::vector<double> out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = x[i].real();
  out.resize(size);
  return out;
}

}  // namespace ptrng::noise
