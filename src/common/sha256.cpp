#include "common/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ptrng {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

inline std::uint32_t load_be32(const std::byte* p) noexcept {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

inline void store_be32(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>(v >> 16);
  p[2] = static_cast<std::byte>(v >> 8);
  p[3] = static_cast<std::byte>(v);
}

/// Message schedule word t >= 16 from the 16 before it.
inline std::uint32_t schedule_word(const std::array<std::uint32_t, 64>& w,
                                   std::size_t t) noexcept {
  const std::uint32_t s0 =
      std::rotr(w[t - 15], 7) ^ std::rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
  const std::uint32_t s1 =
      std::rotr(w[t - 2], 17) ^ std::rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
  return w[t - 16] + s0 + w[t - 7] + s1;
}

/// Rounds [first, last) of the compression function on the working
/// variables a..h held in `s` (no feed-forward).
inline void run_rounds(std::array<std::uint32_t, 8>& s,
                       const std::array<std::uint32_t, 64>& w,
                       std::size_t first, std::size_t last) noexcept {
  std::uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  std::uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (std::size_t t = first; t < last; ++t) {
    const std::uint32_t big_s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + big_s1 + ch + kRoundConstants[t] + w[t];
    const std::uint32_t big_s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = big_s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  s = {a, b, c, d, e, f, g, h};
}

}  // namespace

void Sha256::reset() noexcept {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::compress(const std::byte* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (std::size_t t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (std::size_t t = 16; t < 64; ++t) w[t] = schedule_word(w, t);
  std::array<std::uint32_t, 8> work = state_;
  run_rounds(work, w, 0, 64);
  for (std::size_t i = 0; i < 8; ++i) state_[i] += work[i];
}

void Sha256::update(std::span<const std::byte> data) noexcept {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::byte* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0) {
    const std::size_t take = std::min(n, kBlockBytes - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < kBlockBytes) return;
    compress(buffer_.data());
    buffered_ = 0;
  }
  while (n >= kBlockBytes) {
    compress(p);
    p += kBlockBytes;
    n -= kBlockBytes;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha256::Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Padding: 0x80, zeros, 64-bit big-endian message length.
  buffer_[buffered_++] = std::byte{0x80};
  if (buffered_ > kBlockBytes - 8) {
    std::memset(buffer_.data() + buffered_, 0, kBlockBytes - buffered_);
    compress(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, kBlockBytes - 8 - buffered_);
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[kBlockBytes - 1 - i] = static_cast<std::byte>(bit_length >> (8 * i));
  compress(buffer_.data());

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha256::Digest Sha256::digest(std::span<const std::byte> data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

void sha256_counter_digests(std::span<const std::byte, 55> counter,
                            std::span<std::byte> out) noexcept {
  // The 55-byte message, its 0x80 pad and its 64-bit length fill one
  // block: W0..W12 are counter bytes 0..51, W13 is bytes 52..54 then
  // 0x80, W14 = 0 and W15 = 440. Stepping the counter's low 24 bits
  // changes only W13, so rounds 0..12, W16..W19, W21, W23, W25 and W20
  // less its W13 term are prepared once per carry into byte 51.
  std::array<std::uint32_t, 64> w{};
  for (std::size_t t = 0; t < 13; ++t)
    w[t] = load_be32(counter.data() + 4 * t);
  w[15] = 8 * 55;
  std::uint32_t low = (std::to_integer<std::uint32_t>(counter[52]) << 16) |
                      (std::to_integer<std::uint32_t>(counter[53]) << 8) |
                      std::to_integer<std::uint32_t>(counter[54]);
  std::array<std::uint32_t, 8> prefix{};
  std::uint32_t w20_fixed = 0;
  const auto prepare = [&] {
    w[13] = 0;
    for (const std::size_t t : {16, 17, 18, 19, 21, 23, 25})
      w[t] = schedule_word(w, t);
    w20_fixed = schedule_word(w, 20);
    prefix = kInitialState;
    run_rounds(prefix, w, 0, 13);
  };
  prepare();

  Sha256::Digest tail{};
  for (std::size_t produced = 0; produced < out.size();) {
    w[13] = (low << 8) | 0x80u;
    w[20] = w20_fixed + w[13];
    w[22] = schedule_word(w, 22);
    w[24] = schedule_word(w, 24);
    for (std::size_t t = 26; t < 64; ++t) w[t] = schedule_word(w, t);
    std::array<std::uint32_t, 8> work = prefix;
    run_rounds(work, w, 13, 64);

    const std::size_t take =
        std::min(Sha256::kDigestBytes, out.size() - produced);
    std::byte* dst = take == Sha256::kDigestBytes ? out.data() + produced
                                                  : tail.data();
    for (std::size_t i = 0; i < 8; ++i)
      store_be32(dst + 4 * i, kInitialState[i] + work[i]);
    if (dst == tail.data())
      std::memcpy(out.data() + produced, tail.data(), take);
    produced += take;

    low = (low + 1) & 0xffffffu;
    if (low == 0 && produced < out.size()) {
      // Carry into byte 51 and up, mod 2^440 (all-ones wraps to zero).
      std::size_t t = 13;
      while (t-- > 0 && ++w[t] == 0) {
      }
      prepare();
    }
  }
}

std::string to_hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    out.push_back(kDigits[std::to_integer<unsigned>(b) >> 4]);
    out.push_back(kDigits[std::to_integer<unsigned>(b) & 0xf]);
  }
  return out;
}

std::vector<std::byte> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("from_hex: odd-length input");
  auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    throw std::invalid_argument("from_hex: non-hex character");
  };
  std::vector<std::byte> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] =
        static_cast<std::byte>((nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
  return out;
}

}  // namespace ptrng
