// Bit-stream statistics for judging algebraic post-processing (AIS31
// Fig. 1 third stage). The post-processing blocks themselves are the
// streaming BitTransform stages in trng/bit_stream.hpp, composed through
// trng::Pipeline; a one-shot batch is one push of a fresh transform.
#pragma once

#include <cstdint>
#include <span>

namespace ptrng::trng {

/// Empirical bias |P(1) - 1/2| of a bit stream.
[[nodiscard]] double bias(std::span<const std::uint8_t> bits);

/// Lag-1 serial correlation coefficient of a bit stream.
[[nodiscard]] double serial_correlation(std::span<const std::uint8_t> bits);

}  // namespace ptrng::trng
