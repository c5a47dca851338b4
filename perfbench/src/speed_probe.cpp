#include "speed_probe.hpp"

#include <algorithm>
#include <stdexcept>


namespace perfbench {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kH0 = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress(std::array<std::uint32_t, 8>& h,
              const std::array<std::uint32_t, 16>& block) {
  std::array<std::uint32_t, 64> w{};
  std::copy(block.begin(), block.end(), w.begin());
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], k = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = k + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kK[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    k = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += k;
}

// The padding block of the empty message: 0x80, then zeros, length 0.
constexpr std::array<std::uint32_t, 16> kEmptyBlock = {0x80000000u};

constexpr std::array<std::uint32_t, 8> kEmptyDigest = {
    0xe3b0c442, 0x98fc1c14, 0x9afbf4c8, 0x996fb924,
    0x27ae41e4, 0x649b934c, 0xa495991b, 0x7852b855};

// Read and written at run time, so the compiler can neither fold the
// probe's work into a constant nor drop it as unused.
volatile int probe_blocks = kProbeBlocks;
volatile std::uint32_t probe_sink = 0;

}  // namespace

std::array<std::uint32_t, 8> probe_state(int blocks) {
  std::array<std::uint32_t, 8> h = kH0;
  for (int i = 0; i < blocks; ++i) compress(h, kEmptyBlock);
  return h;
}

bool probe_computes_sha256() { return probe_state(1) == kEmptyDigest; }

double probe_host_ns() {
  const std::int64_t t0 = now_ns();
  const auto h = probe_state(probe_blocks);
  const std::int64_t t1 = now_ns();
  probe_sink = probe_sink + h[0];
  return static_cast<double>(t1 - t0);
}

std::vector<double> speed_normalized(
    const std::vector<double>& op_ms,
    const std::vector<std::uint32_t>& op_probe,
    const std::vector<double>& probe_ns) {
  if (op_ms.size() != op_probe.size() || probe_ns.empty())
    throw std::invalid_argument("speed_normalized: ops without probes");
  std::vector<double> out(op_ms.size());
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    const std::size_t before = op_probe[i];
    const std::size_t after = std::min(before + 1, probe_ns.size() - 1);
    const double around = 0.5 * (probe_ns.at(before) + probe_ns[after]);
    out[i] = op_ms[i] * kProbeNominalNs / around;
  }
  return out;
}

}  // namespace perfbench
