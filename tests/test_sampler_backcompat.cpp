// Back-compat pins for GaussianSampler::Method::Polar: the PR-5 policy
// switch made the ziggurat the default engine, which changes every
// realized Gaussian stream. These tests pin one PR-4-era seeded stream
// per consumer (raw sampler, white, filter bank, kasdin) in Polar mode,
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
#include "noise/kasdin.hpp"
#include "noise/white.hpp"

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

TEST(SamplerBackCompat, WhiteGaussianPolarStream) {
  // WhiteGaussianNoise(2.0, 1000.0, 0x77) — the seed test_noise uses
  // for the fill bit-identity check — stepped through next().
  WhiteGaussianNoise w(2.0, 1000.0, 0x77, SamplerPolicy{kPolar});
  const std::array<double, 8> expected = {
      -0x1.3bbaa2fc21ac8p+1, 0x1.c83ac5eb98d55p+0,  0x1.0f97d0249fd87p+0,
      -0x1.7907fb8cbd2ccp+0, -0x1.edcad752392cbp-4, 0x1.94bd4fb1bb832p+1,
      0x1.e4c83a60270a5p+0,  -0x1.0afcde19577adp-2,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(w.next(), expected[i]) << "sample " << i;
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

TEST(SamplerBackCompat, KasdinPolarStream) {
  KasdinFlicker::Config cfg;
  cfg.alpha = 1.0;
  cfg.sigma_w = 1.0;
  cfg.fs = 1.0;
  cfg.fir_length = 1 << 10;
  cfg.block = 1 << 8;
  cfg.seed = 0x4a5d17;
  cfg.sampler.gauss_method = kPolar;
  KasdinFlicker kf(cfg);
  const std::array<double, 8> expected = {
      0x1.f3aa73adab16cp-2,  0x1.98b642b760274p-4, 0x1.881f253e24ee9p-1,
      0x1.ed7e41e95c7f8p-3,  0x1.86b7cb763add8p-2, 0x1.51732fc6b8735p-2,
      0x1.430eed5f68b18p+0,  -0x1.dd37adab1043dp-2,
  };
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(kf.next(), expected[i]) << "sample " << i;
}

}  // namespace
