#include "noise/white.hpp"

#include "common/contracts.hpp"

namespace ptrng::noise {

WhiteGaussianNoise::WhiteGaussianNoise(double sigma, double fs,
                                       std::uint64_t seed,
                                       SamplerPolicy sampler)
    : sigma_(sigma), fs_(fs), gauss_(seed, sampler.gauss_method) {
  PTRNG_EXPECTS(sigma >= 0.0);
  PTRNG_EXPECTS(fs > 0.0);
}

}  // namespace ptrng::noise
