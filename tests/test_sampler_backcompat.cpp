// Back-compat pins for GaussianSampler::Method::Polar: the PR-5 policy
// switch made the ziggurat the default engine, which changes every
// realized Gaussian stream. These tests pin one PR-4-era seeded stream
// per consumer (raw sampler, filter bank) in Polar mode,
// so the policy plumbing is provably non-destructive: as long as they
// pass, any pre-PR-5 experiment can be reproduced bit-for-bit by
// selecting Method::Polar. Pins are hexfloat literals captured from the
// PR-4 tree (commit 566f1be) on the fully specified Xoshiro256pp
// streams, so they are exact on every platform with the same libm
// log/sqrt behaviour as the seed CI image.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "noise/filter_bank.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::noise;

constexpr auto kPolar = GaussianSampler::Method::Polar;

TEST(SamplerBackCompat, RawPolarStreamSeed123) {
  GaussianSampler g(123, kPolar);
  const std::array<double, 6> expected = {
      0x1.c08760891807bp-2,  0x1.03fb4920a2dffp+0, 0x1.08c758a4e3737p+1,
      0x1.37321556f4618p-2,  -0x1.31b67fdd49c46p-1, 0x1.16d9063d1986cp-3,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(g(), expected[i]) << "draw " << i;
}

TEST(SamplerBackCompat, FilterBankPolarStream) {
  FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 0xbac2;
  cfg.sampler.gauss_method = kPolar;
  FilterBankFlicker fb(cfg);
  const std::array<double, 8> expected = {
      0x1.c4b9fb94a42d7p-2, 0x1.2f2c80658b736p-1, 0x1.0208943784729p-1,
      0x1.0b830ea1c17ddp-2, 0x1.74e047484aa4cp-2, 0x1.146418b57aacep-1,
      0x1.5a3fce166ea3cp-2, 0x1.8171b0ff3ef74p-2,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(fb.next(), expected[i]) << "sample " << i;
}

}  // namespace
