// SHA-256 (FIPS 180-4): the hash primitive under the conditioning layer
// (trng/conditioning.hpp — hash_df and Hash-DRBG, SP 800-90A). In-house
// for the same reason the RNGs are (docs/ARCHITECTURE.md §3): no
// dependency may decide the bytes a pinned table or KAT reproduces.
//
// Incremental (init/update/final) plus a one-shot convenience. The
// incremental form exists because hash_df and the DRBG derivation
// functions hash concatenations (counter || length || material) that are
// cheaper to stream than to splice into a scratch buffer.
//
// Verified in tests/test_conditioning.cpp against the FIPS 180-4
// example vectors ("abc", the 448-bit two-block message, 1M 'a's),
// including update() split at every boundary of the first vector.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ptrng {

/// Streaming SHA-256 context. Default-constructed ready to absorb;
/// reusable after reset().
class Sha256 {
 public:
  static constexpr std::size_t kDigestBytes = 32;
  static constexpr std::size_t kBlockBytes = 64;

  using Digest = std::array<std::byte, kDigestBytes>;

  Sha256() noexcept { reset(); }

  /// Re-initializes to the FIPS H(0) state (empty message).
  void reset() noexcept;

  /// Absorbs `data`; any number of calls, any split points.
  void update(std::span<const std::byte> data) noexcept;

  /// Pads, finalizes and returns the digest. The context is left
  /// finalized — call reset() before reuse.
  [[nodiscard]] Digest finalize() noexcept;

  /// One-shot digest of a contiguous message.
  [[nodiscard]] static Digest digest(std::span<const std::byte> data) noexcept;

 private:
  void compress(const std::byte* block) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::byte, kBlockBytes> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// Hash_DRBG hashgen (SP 800-90A §10.1.1.4) over SHA-256 with seedlen
/// 440: writes SHA-256(V), SHA-256(V + 1), SHA-256(V + 2), ... back to
/// back into `out`, V = `counter` as a big-endian integer mod 2^440,
/// the last digest truncated to fit. Equal byte for byte to
/// Sha256::digest on each counter value; faster because the work that
/// does not depend on the counter's low 24 bits is done once per carry
/// into byte 51 rather than once per digest.
void sha256_counter_digests(std::span<const std::byte, 55> counter,
                            std::span<std::byte> out) noexcept;

/// Lower-case hex of an arbitrary byte string (KAT pins, reports).
[[nodiscard]] std::string to_hex(std::span<const std::byte> bytes);

/// Parses lower/upper-case hex (even length) into bytes; throws
/// std::invalid_argument on malformed input. Inverse of to_hex.
[[nodiscard]] std::vector<std::byte> from_hex(std::string_view hex);

}  // namespace ptrng
