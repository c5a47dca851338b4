#include "trng/conditioning.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "trng/continuous_health.hpp"

namespace ptrng::trng {

// --- Hash_df --------------------------------------------------------------

void hash_df(std::span<const std::span<const std::byte>> parts,
             std::span<std::byte> out) {
  PTRNG_EXPECTS(!out.empty());
  // §10.3.1 length bound: len = ceil(bits/outlen) must fit the one-byte
  // counter, i.e. out.size() <= 255 * 32.
  PTRNG_EXPECTS(out.size() <= 255u * Sha256::kDigestBytes);

  const std::uint64_t out_bits = 8ull * out.size();
  const std::array<std::byte, 4> bits_be = {
      static_cast<std::byte>((out_bits >> 24) & 0xff),
      static_cast<std::byte>((out_bits >> 16) & 0xff),
      static_cast<std::byte>((out_bits >> 8) & 0xff),
      static_cast<std::byte>(out_bits & 0xff),
  };

  std::size_t produced = 0;
  std::uint8_t counter = 1;
  while (produced < out.size()) {
    Sha256 hash;
    const std::byte counter_byte{counter};
    hash.update({&counter_byte, 1});
    hash.update(bits_be);
    for (const auto part : parts) hash.update(part);
    const auto digest = hash.finalize();
    const std::size_t take =
        std::min(digest.size(), out.size() - produced);
    std::copy_n(digest.begin(), take,
                out.begin() + static_cast<std::ptrdiff_t>(produced));
    produced += take;
    ++counter;
  }
}

void hash_df(std::span<const std::byte> input, std::span<std::byte> out) {
  const std::span<const std::byte> parts[] = {input};
  hash_df(parts, out);
}

std::vector<std::byte> hash_df(std::span<const std::byte> input,
                               std::size_t out_bytes) {
  std::vector<std::byte> out(out_bytes);
  hash_df(input, out);
  return out;
}

// --- HashConditioner ------------------------------------------------------

HashConditioner::HashConditioner(const ConditionerConfig& config)
    : config_(config), h_min_fixed_(min_entropy_bits(config.h_min)) {
  PTRNG_EXPECTS(config.h_min > 0.0 && config.h_min <= 1.0);
  PTRNG_EXPECTS(config.block_bytes >= 1);
  PTRNG_EXPECTS(config.block_bytes <= 255u * Sha256::kDigestBytes);
}

std::size_t HashConditioner::raw_bits_needed(std::size_t out_bytes) const {
  // Input assessed entropy must cover the output bits (+ the 90C
  // full-entropy margin): raw * h_min >= need, all in fixed point,
  // rounded up to whole raw bytes so packing never splits a byte.
  const MinEntropy need_bits =
      8ull * out_bytes + (config_.full_entropy_margin ? 64u : 0u);
  const MinEntropy need_fixed = need_bits * kMinEntropyScale;
  const std::uint64_t raw = (need_fixed + h_min_fixed_ - 1) / h_min_fixed_;
  return static_cast<std::size_t>((raw + 7) / 8 * 8);
}

void HashConditioner::condition(BitSource& source, std::span<std::byte> out) {
  PTRNG_EXPECTS(!out.empty());
  const std::size_t n_bits = raw_bits_needed(out.size());
  raw_bits_.resize(n_bits);
  source.generate_into(raw_bits_);
  packed_.resize(n_bits / 8);
  pack_bits_msb_first(raw_bits_, packed_);
  hash_df(std::span<const std::byte>(packed_), out);
  bits_in_ += n_bits;
  entropy_in_ += h_min_fixed_ * n_bits;
  bytes_out_ += out.size();
}

std::vector<std::byte> HashConditioner::condition_block(BitSource& source) {
  std::vector<std::byte> out(config_.block_bytes);
  condition(source, out);
  return out;
}

// --- ConditioningTransform ------------------------------------------------

ConditioningTransform::ConditioningTransform(const ConditionerConfig& config)
    : config_(config),
      bits_per_block_(HashConditioner(config).raw_bits_needed(
          config.block_bytes)) {}

void ConditioningTransform::push(std::span<const std::uint8_t> in,
                                 std::vector<std::uint8_t>& out) {
  buffer_.insert(buffer_.end(), in.begin(), in.end());
  std::size_t pos = 0;
  while (buffer_.size() - pos >= bits_per_block_) {
    packed_.resize(bits_per_block_ / 8);
    pack_bits_msb_first({buffer_.data() + pos, bits_per_block_}, packed_);
    conditioned_.resize(config_.block_bytes);
    hash_df(std::span<const std::byte>(packed_), conditioned_);
    const std::size_t base = out.size();
    out.resize(base + 8 * conditioned_.size());
    unpack_bits_msb_first(conditioned_,
                          {out.data() + base, 8 * conditioned_.size()});
    pos += bits_per_block_;
    ++blocks_out_;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

// --- HashDrbg -------------------------------------------------------------

namespace {

/// x += y (big-endian byte arrays) mod 2^(8*x.size()).
void add_be_mod(std::span<std::byte> x, std::span<const std::byte> y) {
  std::uint32_t carry = 0;
  auto xi = x.rbegin();
  auto yi = y.rbegin();
  for (; xi != x.rend(); ++xi) {
    std::uint32_t sum = std::to_integer<std::uint32_t>(*xi) + carry;
    if (yi != y.rend()) {
      sum += std::to_integer<std::uint32_t>(*yi);
      ++yi;
    } else if (carry == 0) {
      break;
    }
    *xi = static_cast<std::byte>(sum & 0xff);
    carry = sum >> 8;
  }
}

/// x += value (unsigned integer, big-endian) mod 2^(8*x.size()).
void add_be_mod(std::span<std::byte> x, std::uint64_t value) {
  std::array<std::byte, 8> be;
  for (std::size_t i = 0; i < 8; ++i)
    be[7 - i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  add_be_mod(x, be);
}

}  // namespace

HashDrbg::HashDrbg(const HashDrbgConfig& config) : config_(config) {
  PTRNG_EXPECTS(config.reseed_interval >= 1);
  // 90A ceilings for SHA-256: 2^48 requests, 2^19 bits per request.
  PTRNG_EXPECTS(config.reseed_interval <= (1ull << 48));
  PTRNG_EXPECTS(config.max_bytes_per_request >= 1);
  PTRNG_EXPECTS(config.max_bytes_per_request <= (1u << 16));
}

void HashDrbg::seed_from(
    std::span<const std::span<const std::byte>> parts) {
  // seed = Hash_df(seed_material, seedlen); V = seed;
  // C = Hash_df(0x00 || V, seedlen).
  std::array<std::byte, kSeedLenBytes> seed;
  hash_df(parts, seed);
  v_ = seed;
  constexpr std::byte kZero{0x00};
  const std::span<const std::byte> c_parts[] = {{&kZero, 1}, v_};
  hash_df(c_parts, c_);
  reseed_counter_ = 1;
}

void HashDrbg::instantiate(std::span<const std::byte> entropy_input,
                           std::span<const std::byte> nonce,
                           std::span<const std::byte> personalization) {
  PTRNG_EXPECTS(entropy_input.size() >= kSecurityStrengthBytes);
  const std::span<const std::byte> parts[] = {entropy_input, nonce,
                                              personalization};
  seed_from(parts);
  instantiated_ = true;
  reseed_fresh_ = false;  // PR still demands fresh entropy per request
}

void HashDrbg::reseed(std::span<const std::byte> entropy_input,
                      std::span<const std::byte> additional) {
  PTRNG_EXPECTS(instantiated_);
  PTRNG_EXPECTS(entropy_input.size() >= kSecurityStrengthBytes);
  constexpr std::byte kOne{0x01};
  const std::span<const std::byte> parts[] = {{&kOne, 1}, v_, entropy_input,
                                              additional};
  seed_from(parts);
  ++reseeds_;
  reseed_fresh_ = true;
}

HashDrbg::Status HashDrbg::generate(std::span<std::byte> out,
                                    std::span<const std::byte> additional) {
  if (!instantiated_) return Status::kNotInstantiated;
  if (out.size() > config_.max_bytes_per_request)
    return Status::kRequestTooLarge;

  if ((config_.prediction_resistance && !reseed_fresh_) ||
      reseed_counter_ > config_.reseed_interval) {
    if (!reseed_source_) return Status::kNeedReseed;
    std::array<std::byte, kSecurityStrengthBytes> fresh;
    reseed_source_(fresh);
    reseed(fresh, additional);
    additional = {};  // §9.3.3: consumed by the reseed
  }

  if (!additional.empty()) {
    // w = Hash(0x02 || V || additional); V = (V + w) mod 2^seedlen.
    Sha256 hash;
    constexpr std::byte kTwo{0x02};
    hash.update({&kTwo, 1});
    hash.update(v_);
    hash.update(additional);
    const auto w = hash.finalize();
    add_be_mod(v_, w);
  }

  // Hashgen: data = V; out_i = Hash(data); data = (data + 1) mod 2^440.
  sha256_counter_digests(v_, out);

  // V = (V + H + C + reseed_counter) mod 2^seedlen, H = Hash(0x03 || V).
  Sha256 hash;
  constexpr std::byte kThree{0x03};
  hash.update({&kThree, 1});
  hash.update(v_);
  const auto h = hash.finalize();
  add_be_mod(v_, h);
  add_be_mod(v_, c_);
  add_be_mod(v_, reseed_counter_);
  ++reseed_counter_;
  ++requests_;
  reseed_fresh_ = false;  // consumed by this request
  return Status::kOk;
}

}  // namespace ptrng::trng
