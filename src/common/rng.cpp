#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/ziggurat.hpp"

namespace ptrng {

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
}

std::uint64_t Xoshiro256pp::uniform_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method specialized to 64 bits.
  if (bound == 0) return next();
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Xoshiro256pp::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      next();
    }
  }
  state_ = {s0, s1, s2, s3};
}

void GaussianSampler::fill(std::span<double> out) noexcept {
  if (method_ == Method::Ziggurat) {
    ZigguratNormal::fill(rng_, out);
    return;
  }
  polar_fill(out);
}

void GaussianSampler::fill_packs(std::span<GaussianSampler> samplers,
                                 std::span<double> out) noexcept {
  if (samplers.empty()) return;
  const std::size_t n = out.size() / samplers.size();
  // Groups of up to two packs, the widest kernel's lane count, so the
  // stream pointers fit a stack array.
  constexpr std::size_t kGroup = 8;
  for (std::size_t g = 0; g < samplers.size(); g += kGroup) {
    const auto group =
        samplers.subspan(g, std::min(kGroup, samplers.size() - g));
    double* const block = out.data() + g * n;
    const bool all_ziggurat =
        std::all_of(group.begin(), group.end(), [](const auto& s) {
          return s.method_ == Method::Ziggurat;
        });
    if (all_ziggurat) {
      std::array<Xoshiro256pp*, kGroup> rngs{};
      for (std::size_t l = 0; l < group.size(); ++l) rngs[l] = &group[l].rng_;
      ZigguratNormal::fill_packs({rngs.data(), group.size()}, n, block);
      continue;
    }
    // Polar (or mixed-method) samplers: scalar draws in the same layout.
    // operator()() carries each sampler's pair cache, so every
    // subsequence still matches stepping that sampler alone.
    for (std::size_t p = 0; p < group.size(); p += 4)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < 4; ++l)
          block[p * n + 4 * i + l] = group[p + l]();
  }
}

double GaussianSampler::polar_next() noexcept {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * rng_.uniform() - 1.0;
    v = 2.0 * rng_.uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * factor;
  has_cached_ = true;
  return u * factor;
}

void GaussianSampler::polar_fill(std::span<double> out) noexcept {
  std::size_t i = 0;
  if (has_cached_ && i < out.size()) {
    out[i++] = cached_;
    has_cached_ = false;
  }
  // Whole pairs: identical arithmetic to operator()(), which returns u*m
  // and caches v*m — two consecutive uncached draws yield exactly this.
  while (i + 1 < out.size()) {
    double u, v, s;
    do {
      u = 2.0 * rng_.uniform() - 1.0;
      v = 2.0 * rng_.uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    out[i++] = u * factor;
    out[i++] = v * factor;
  }
  // Odd tail: one scalar draw (caches its partner, like stepping would).
  if (i < out.size()) out[i] = polar_next();
}

}  // namespace ptrng
