// Conditioning layer (ROADMAP item 1, first half): the bridge between
// the raw-bit pipeline and the byte-first RBG service.
//
//  * hash_df        — SP 800-90A §10.3.1 derivation function over
//                     SHA-256; the one primitive under both the
//                     conditioner and the DRBG seed arithmetic.
//  * HashConditioner— a vetted conditioner (90B §3.1.5.1.2): pulls
//                     raw bits whose ASSESSED min-entropy covers the
//                     requested output plus the SP 800-90C
//                     full-entropy margin (+64 bits), and compresses
//                     them through hash_df. Every block updates an
//                     explicit entropy ledger: bits in, assessed
//                     entropy in (fixed point), full-entropy bytes
//                     out — the accounting the paper's H > 0.997
//                     per-raw-bit claim feeds into.
//  * ConditioningTransform — the same operation as a streaming
//                     pipeline stage (a BitTransform).
//  * EntropyAccountingTap  — a TapStage that only keeps the ledger
//                     (for pipelines that condition elsewhere).
//  * HashDrbg       — SP 800-90A §10.1.1 Hash_DRBG on SHA-256
//                     (seedlen 440), with prediction resistance and a
//                     pluggable reseed source so the health engine's
//                     alarm hook can force fresh seed material.
//
// Min-entropy is tracked in 1/65536-bit fixed point (kMinEntropyScale)
// so ledger arithmetic is exact integer math — the convention iPXE's
// entropy stack uses for its 90B accounting.
//
// docs/ARCHITECTURE.md §7 "Conditioning & service layer" states the
// layering rules; test_conditioning.cpp pins SHA-256 against FIPS
// 180-4 vectors and the DRBG against golden KATs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/sha256.hpp"
#include "trng/bit_stream.hpp"

namespace ptrng::trng {

// --- min-entropy fixed point ---------------------------------------------

/// Fixed-point min-entropy amount: kMinEntropyScale units == 1 bit.
using MinEntropy = std::uint64_t;
inline constexpr MinEntropy kMinEntropyScale = 1ull << 16;

/// Fixed-point encoding of `bits` of min-entropy (bits in [0, 2^47]).
[[nodiscard]] constexpr MinEntropy min_entropy_bits(double bits) noexcept {
  return static_cast<MinEntropy>(bits * static_cast<double>(kMinEntropyScale));
}

// --- Hash_df (SP 800-90A §10.3.1) ----------------------------------------

/// Hash_df over the concatenation of `parts`: iterates
/// SHA-256(counter || be32(8*out.size()) || parts...) with counter
/// 1, 2, ... until out is filled. The multi-part form exists so DRBG
/// seed material (prefix || V || entropy || ...) never needs a staging
/// concatenation. out.size() <= 255 * 32 (the §10.3.1 length bound).
void hash_df(std::span<const std::span<const std::byte>> parts,
             std::span<std::byte> out);

/// Single-input convenience.
void hash_df(std::span<const std::byte> input, std::span<std::byte> out);

/// Allocating convenience.
[[nodiscard]] std::vector<std::byte> hash_df(std::span<const std::byte> input,
                                             std::size_t out_bytes);

// --- vetted conditioner ---------------------------------------------------

/// HashConditioner configuration. `h_min` is the ASSESSED min-entropy
/// per raw bit — the deployment-facing number coming out of the 90B
/// estimation story (entropy.hpp / sp80090b.hpp), deliberately not
/// measured online here.
struct ConditionerConfig {
  /// Assessed min-entropy per raw source bit, in (0, 1].
  double h_min = 0.5;
  /// Conditioned block size [bytes] of condition_block(); 32 = one
  /// SHA-256 output = one 256-bit DRBG (re)seed.
  std::size_t block_bytes = 32;
  /// SP 800-90C full-entropy margin: require input min-entropy >=
  /// output bits + 64. Disable only for entropy-rate experiments.
  bool full_entropy_margin = true;
};

/// SHA-256 hash_df conditioner with an explicit entropy ledger.
class HashConditioner {
 public:
  explicit HashConditioner(const ConditionerConfig& config);

  /// Raw bits that must be consumed to emit `out_bytes` conditioned
  /// bytes: ceil((8*out_bytes [+ 64]) / h_min), rounded up to whole
  /// bytes of raw stream.
  [[nodiscard]] std::size_t raw_bits_needed(std::size_t out_bytes) const;

  /// Pulls raw_bits_needed(out.size()) bits from `source`, packs them
  /// MSB-first and hash_df-compresses them into `out`. Updates the
  /// ledger.
  void condition(BitSource& source, std::span<std::byte> out);

  /// Allocating convenience: one config.block_bytes block.
  [[nodiscard]] std::vector<std::byte> condition_block(BitSource& source);

  // Entropy ledger (monotone over the conditioner's lifetime).
  [[nodiscard]] std::uint64_t bits_in() const noexcept { return bits_in_; }
  [[nodiscard]] MinEntropy entropy_in() const noexcept { return entropy_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept { return bytes_out_; }

  [[nodiscard]] const ConditionerConfig& config() const noexcept {
    return config_;
  }

 private:
  ConditionerConfig config_;
  MinEntropy h_min_fixed_;
  std::uint64_t bits_in_ = 0;
  MinEntropy entropy_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::vector<std::uint8_t> raw_bits_;  ///< staging: raw pull
  std::vector<std::byte> packed_;       ///< staging: packed raw bytes
};

/// Streaming-stage form of the conditioner: consumes raw bits, emits
/// CONDITIONED bits (unpacked MSB-first, so it composes inside a bit
/// Pipeline like any other transform). Bits buffer across pushes until
/// one conditioned block's worth of input entropy has arrived; reset()
/// drops the open buffer.
class ConditioningTransform final : public BitTransform {
 public:
  explicit ConditioningTransform(const ConditionerConfig& config);

  void push(std::span<const std::uint8_t> in,
            std::vector<std::uint8_t>& out) override;
  void reset() override { buffer_.clear(); }
  [[nodiscard]] const char* name() const noexcept override {
    return "hash_conditioner";
  }

  /// Raw bits consumed per emitted block (fixed at construction).
  [[nodiscard]] std::size_t bits_per_block() const noexcept {
    return bits_per_block_;
  }
  [[nodiscard]] std::uint64_t blocks_out() const noexcept {
    return blocks_out_;
  }

 private:
  ConditionerConfig config_;
  std::size_t bits_per_block_;
  std::vector<std::uint8_t> buffer_;
  std::vector<std::byte> packed_;
  std::vector<std::byte> conditioned_;
  std::uint64_t blocks_out_ = 0;
};

/// TapStage that keeps the conditioner's entropy ledger for a pipeline
/// WITHOUT conditioning in-line (e.g. when the service conditions off
/// the pipeline output but the assessment tap rides the raw stream).
class EntropyAccountingTap final : public TapStage {
 public:
  explicit EntropyAccountingTap(double h_min)
      : h_min_fixed_(min_entropy_bits(h_min)) {}

  void observe(std::span<const std::uint8_t> raw_bits) override {
    bits_seen_ += raw_bits.size();
    entropy_seen_ += h_min_fixed_ * raw_bits.size();
  }
  [[nodiscard]] const char* tap_name() const noexcept override {
    return "entropy_accounting";
  }

  [[nodiscard]] std::uint64_t bits_seen() const noexcept { return bits_seen_; }
  [[nodiscard]] MinEntropy entropy_seen() const noexcept {
    return entropy_seen_;
  }
  /// Full-entropy bytes this much assessed input entropy can back
  /// (90C margin included): floor((entropy_bits - 64) / 8).
  [[nodiscard]] std::uint64_t full_entropy_bytes() const noexcept {
    const MinEntropy margin = 64 * kMinEntropyScale;
    if (entropy_seen_ <= margin) return 0;
    return (entropy_seen_ - margin) / (8 * kMinEntropyScale);
  }

 private:
  MinEntropy h_min_fixed_;
  std::uint64_t bits_seen_ = 0;
  MinEntropy entropy_seen_ = 0;
};

// --- Hash_DRBG (SP 800-90A §10.1.1) --------------------------------------

/// Hash_DRBG configuration. The 90A ceilings for SHA-256 are
/// reseed_interval <= 2^48 and 2^19 bits (65536 bytes) per request;
/// defaults are far below the ceilings because the service reseeds
/// cheaply.
struct HashDrbgConfig {
  /// Generate requests served before a reseed is REQUIRED.
  std::uint64_t reseed_interval = 1ull << 16;
  /// Reseed before EVERY generate request (SP 800-90C prediction
  /// resistance). Requires a reseed source.
  bool prediction_resistance = false;
  /// Per-request output ceiling [bytes].
  std::size_t max_bytes_per_request = 1u << 16;
};

/// SHA-256 Hash_DRBG: V/C of seedlen = 440 bits, hash_df seed
/// arithmetic, hashgen output. Not thread-safe — the service gives
/// each consumer stream its own instance.
class HashDrbg {
 public:
  static constexpr std::size_t kSeedLenBytes = 55;  ///< 440 bits
  static constexpr std::size_t kSecurityStrengthBytes = 32;  ///< 256 bits

  enum class Status : std::uint8_t {
    kOk,
    kNotInstantiated,
    kNeedReseed,       ///< interval exhausted (or PR) and no reseed source
    kRequestTooLarge,  ///< out.size() > max_bytes_per_request
  };

  /// Fresh-entropy provider for automatic reseeds: fills its argument
  /// (>= kSecurityStrengthBytes) with conditioned full-entropy bytes.
  /// The service wires this to the conditioned-block ring.
  using ReseedSource = std::function<void(std::span<std::byte>)>;

  explicit HashDrbg(const HashDrbgConfig& config = {});

  /// §10.1.1.2: seed from entropy_input || nonce || personalization.
  /// entropy_input must carry >= 256 bits of min-entropy (the
  /// conditioner's full-entropy blocks qualify).
  void instantiate(std::span<const std::byte> entropy_input,
                   std::span<const std::byte> nonce,
                   std::span<const std::byte> personalization = {});

  /// §10.1.1.3: V = hash_df(0x01 || V || entropy || additional). An
  /// explicit reseed also satisfies prediction resistance for the NEXT
  /// generate request (callers that pump fresh entropy themselves —
  /// the service's per-request reseed — need no ReseedSource).
  void reseed(std::span<const std::byte> entropy_input,
              std::span<const std::byte> additional = {});

  /// §10.1.1.4: fills `out`; auto-reseeds through the reseed source
  /// when the interval is exhausted or prediction resistance is on,
  /// and reports kNeedReseed when it must reseed but cannot.
  [[nodiscard]] Status generate(std::span<std::byte> out,
                                std::span<const std::byte> additional = {});

  void set_reseed_source(ReseedSource source) {
    reseed_source_ = std::move(source);
  }

  [[nodiscard]] bool instantiated() const noexcept { return instantiated_; }
  /// §10.1.1 reseed_counter: requests served since the last (re)seed,
  /// plus one (1 right after instantiate/reseed).
  [[nodiscard]] std::uint64_t reseed_counter() const noexcept {
    return reseed_counter_;
  }
  [[nodiscard]] std::uint64_t reseeds() const noexcept { return reseeds_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_;
  }
  [[nodiscard]] const HashDrbgConfig& config() const noexcept {
    return config_;
  }

 private:
  void seed_from(std::span<const std::span<const std::byte>> parts);

  HashDrbgConfig config_;
  std::array<std::byte, kSeedLenBytes> v_{};
  std::array<std::byte, kSeedLenBytes> c_{};
  std::uint64_t reseed_counter_ = 0;
  std::uint64_t reseeds_ = 0;
  std::uint64_t requests_ = 0;
  bool instantiated_ = false;
  bool reseed_fresh_ = false;  ///< explicit reseed since the last request
  ReseedSource reseed_source_;
};

}  // namespace ptrng::trng
