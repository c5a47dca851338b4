#include "noise/voss.hpp"

#include <bit>

#include "common/contracts.hpp"

namespace ptrng::noise {

VossMcCartney::VossMcCartney(std::size_t rows, double fs, std::uint64_t seed,
                             SamplerPolicy sampler)
    : fs_(fs), values_(rows, 0.0), gauss_(seed, sampler.gauss_method) {
  PTRNG_EXPECTS(rows >= 1 && rows <= 48);
  PTRNG_EXPECTS(fs > 0.0);
  for (auto& v : values_) {
    v = gauss_();
    running_sum_ += v;
  }
}

double VossMcCartney::next() {
  ++counter_;
  const auto tz = static_cast<std::size_t>(std::countr_zero(counter_));
  if (tz < values_.size()) {
    running_sum_ -= values_[tz];
    values_[tz] = gauss_();
    running_sum_ += values_[tz];
  }
  white_ = gauss_();
  return running_sum_ + white_;
}

}  // namespace ptrng::noise
