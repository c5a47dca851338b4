// The `serve` workload: a RandomByteService with the default
// RbgServiceConfig over the paper eRO, and one Stream issuing 64 KiB
// fill() calls (the DRBG per-request ceiling) in a closed loop. The
// consumer's op is Hash_DRBG and SHA-256; the oscillator runs on the
// service's producer thread, off the op's critical path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "report.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"
#include "trng/rbg_service.hpp"

namespace perfbench {

namespace trng = ::ptrng::trng;

inline constexpr std::size_t kFillBytes = 64 * 1024;

/// A service over its own eRO source and health engine.
struct ServeRig {
  explicit ServeRig(std::uint64_t seed);
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// start(), then wait until the ring holds its full capacity of
  /// conditioned blocks. False when it did not fill within the limit.
  bool start_and_fill();

  trng::EroTrng source;
  trng::HealthEngine health;
  trng::RandomByteService service;
};

/// Counts one fill; a non-kOk status is a failed op and fails the run.
void record_fill(Result& result, trng::RandomByteService::FillStatus status);

/// Checks that the ring reached its capacity in every set-up.
void check_ring_filled(Result& result, bool filled);

/// Checks stream determinism: the same (seed, id) on a fresh twin gives
/// identical bytes and a different id gives different bytes.
void check_stream_twins(Result& result, std::span<const std::byte> first,
                        std::span<const std::byte> twin_same_id,
                        std::span<const std::byte> twin_other_id);

}  // namespace perfbench
