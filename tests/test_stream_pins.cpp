// Stream pins: SHA-256 known-answer digests of realized streams that a
// performance change must not move by accident.
//
//  (i)  FilterBankFlicker under mixed call sequences — next(),
//       advance_sum(k) for varied k and fill() of odd lengths, in an
//       order that exercises every way the three draw paths can
//       interleave (a block advance that takes the last buffered draw
//       of every stage right after 63 single steps, a fill that starts
//       mid-way through previously drawn Gaussians, fills past the
//       internal block size).
//       One digest per (bank shape, sampler engine); every digest must
//       hold with SIMD on and forced off and at pool widths 1 and 8,
//       which is the batched-noise determinism contract of
//       docs/ARCHITECTURE.md §5.
//  (ii) Raw bits of the paper eRO (divider 200) and the 4-ring
//       multi-ring generator for three seeds, and of the paper eRO under
//       the two sinusoidally modulated injection attacks (EM harmonic
//       injection at coupling 0.3 and the campaign's em_strong preset).
//  (iii) Raw bits of the 3-cell array for three seeds, in two configs:
//       the campaign's technology-derived 90 nm thermal-only cells at
//       the default divider 64, and bench_cell_array's jittery
//       fast-clock config (divider 8).
//  (iv) The first 16 Fig.-6 counter counts of a paper pair (mismatch
//       +-1.5e-3, windows of N = 1000 osc2 cycles).
//
// The (i) pins are bit-identity pins: no change may move them without a
// declared §5 recalibration. The (ii), (iii) and (iv) pins move with any
// change to how the oscillators realize edges (for example the
// block-advance margin shared by the oscillators' advance_to_block);
// such a change re-pins them in the same commit and says so. Every
// Ziggurat-engine pin here, (i) to (iv), was last re-pinned when the
// ziggurat table went from 256 to 2048 layers (same law, new streams);
// the Polar bank pin has not moved since advance_sum pooled its
// per-stage residual draws into one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attacks/injection.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/simd.hpp"
#include "measurement/counter.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "transistor/technology.hpp"
#include "trng/cell_array.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"

namespace {

using namespace ptrng;
using noise::FilterBankFlicker;

using Method = GaussianSampler::Method;

template <typename T>
std::string sha256_hex(std::span<const T> values) {
  return to_hex(Sha256::digest(std::as_bytes(values)));
}

class GlobalPoolWidth {
 public:
  explicit GlobalPoolWidth(std::size_t width) {
    ThreadPool::global().resize(width);
  }
  ~GlobalPoolWidth() { ThreadPool::global().resize(0); }
  GlobalPoolWidth(const GlobalPoolWidth&) = delete;
  GlobalPoolWidth& operator=(const GlobalPoolWidth&) = delete;
};

/// Bank shapes: 21 stages (the paper oscillator's bank: five 4-stage
/// packs and a 1-stage tail), 19 stages (3-stage tail, padded to a full
/// pack by fill() under the ziggurat) and 6 stages (2-stage tail).
struct BankShape {
  double f_min;
  unsigned stages_per_decade;
  std::size_t stages;
};
constexpr BankShape kShapes[] = {
    {1e-7, 3, 21},
    {4e-7, 3, 19},
    {8e-6, 1, 6},
};

FilterBankFlicker make_bank(const BankShape& shape, Method method) {
  auto cfg = noise::flicker_band_config(1e-3, 1.0, shape.f_min, 0x5eed'f11c,
                                        shape.stages_per_decade,
                                        noise::SamplerPolicy{method});
  FilterBankFlicker bank(cfg);
  EXPECT_EQ(bank.stage_count(), shape.stages);
  return bank;
}

/// Runs the fixed mixed call script and returns every value it produced.
std::vector<double> run_script(FilterBankFlicker& bank) {
  std::vector<double> out;
  auto step = [&] { out.push_back(bank.next()); };
  auto jump = [&](std::size_t k) { out.push_back(bank.advance_sum(k)); };
  auto fill = [&](std::size_t n) {
    std::vector<double> block(n);
    bank.fill(block);
    out.insert(out.end(), block.begin(), block.end());
  };
  // Scripted edges: 63 single steps and then a block advance that takes
  // the last buffered draw of every stage;
  // a fill entered part-way through earlier draws; single-sample and
  // k = 1 calls; one fill longer than fill()'s internal block.
  for (int i = 0; i < 63; ++i) step();
  jump(200);
  for (int i = 0; i < 3; ++i) step();
  fill(61);
  fill(7);
  jump(2);
  jump(1);
  step();
  fill(1);
  for (int i = 0; i < 30; ++i) jump(17);
  step();
  fill(8195);
  step();
  jump(3);
  // Pseudo-random tail: 600 operations over the three paths.
  SplitMix64 ops(0x5c21'7e57);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t r = ops.next();
    switch (r % 4) {
      case 0:
        step();
        break;
      case 1:
        jump(1 + (r >> 8) % 2500);
        break;
      case 2:
        jump(1 + (r >> 8) % 5);
        break;
      default:
        fill(1 + 2 * ((r >> 8) % 97));  // odd lengths 1..193
        break;
    }
  }
  fill(16);
  return out;
}

std::string bank_digest(const BankShape& shape, Method method) {
  auto bank = make_bank(shape, method);
  const auto out = run_script(bank);
  return sha256_hex(std::span<const double>(out));
}

void expect_bank_pins(Method method, const char* const (&pins)[3]) {
  for (std::size_t i = 0; i < std::size(kShapes); ++i) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
      GlobalPoolWidth pool(width);
      EXPECT_EQ(bank_digest(kShapes[i], method), pins[i])
          << kShapes[i].stages << " stages, width " << width << ", SIMD on";
      simd::ScopedForceScalar scalar;
      EXPECT_EQ(bank_digest(kShapes[i], method), pins[i])
          << kShapes[i].stages << " stages, width " << width
          << ", SIMD forced off";
    }
  }
}

TEST(StreamPins, FilterBankMixedCallsZiggurat) {
  const char* const pins[3] = {
      "3c2dab63c3bba8dbe2ef51c7114cc4e4248c0fea5992c1d2bb25a5fc2b61ee84",
      "b186d29bcbe96945549f2d150e08774ded5d75fc045f1befae59db8c19d1ca57",
      "6a1f1f159c05bad2fa56078408ffc6ea79e6103b01c0e549b9d10310b80ff086",
  };
  expect_bank_pins(Method::Ziggurat, pins);
}

TEST(StreamPins, FilterBankMixedCallsPolar) {
  const char* const pins[3] = {
      "97106ec4681d319b5d70f7861a08208acdb1d55474f2bd164d9ff76e9b5f280a",
      "eac7ff2bf00b66d4279fb12df0ab14df1bfac5753aa335d6f04977dce0d0c690",
      "5fd01794fb25488c4d0ed9bf5b341aa593923ecd6ba88659673455af23a8700b",
  };
  expect_bank_pins(Method::Polar, pins);
}

constexpr std::uint64_t kBitSeeds[] = {1, 2, 0xdecafbad};

TEST(StreamPins, PaperEroBits) {
  const char* const pins[3] = {
      "6a5de7f46bc9a0ee7b939f8d1443aa86e3743109dc3fb2134eac3088b80240f3",
      "ff827358d57f82c9ac14d3100000b799a2dcdbc76893af3ab6aff458581a57f0",
      "ccb9ea691c3a205e0f2cb77d8b51bd4b87efeab4e180da72cd16a417ddeb3af5",
  };
  for (std::size_t i = 0; i < std::size(kBitSeeds); ++i) {
    auto trng = trng::paper_trng(200, kBitSeeds[i]);
    std::vector<std::uint8_t> bits(4096);
    trng.generate_into(bits);
    EXPECT_EQ(sha256_hex(std::span<const std::uint8_t>(bits)), pins[i])
        << "seed " << kBitSeeds[i];
  }
}

TEST(StreamPins, PaperMultiRingBits) {
  const char* const pins[3] = {
      "908ff08bcb9edb2ab5650326092c1533ef3f073e4e87e25808c9772c022b01f3",
      "e25f0193df1a32278fad152485337e76fd765528a4f2306fb9778f82b0ad7bcf",
      "83cde0e70592a223b0dc2bf885c113f4de0837701374f4db9e807f8cf00902a1",
  };
  for (std::size_t i = 0; i < std::size(kBitSeeds); ++i) {
    auto trng = trng::paper_multi_ring(4, 200, kBitSeeds[i]);
    std::vector<std::uint8_t> bits(2048);
    trng.generate_into(bits);
    EXPECT_EQ(sha256_hex(std::span<const std::uint8_t>(bits)), pins[i])
        << "seed " << kBitSeeds[i];
  }
}

TEST(StreamPins, AttackedEroBits) {
  const char* const weak_pins[3] = {
      "1dca48f2bd1b5254cf87cd5c69926924bd99955837aa0b3991549ee10b70ec56",
      "0568fd07fd547056924c5656d6c188dc59655cf522858aef02f533bc7d14abba",
      "73be9559d456824a1856d6b552b778406022e5b9b83d31e582590cf5dbbcb782",
  };
  const char* const strong_pins[3] = {
      "4fa5b0f59620a31e9a76cfcd35534b9514fc3900398d6a84bb62e560b4599a54",
      "461bf8eb2c45dca1e8861c50b9c72c6ec9539c368937b187687e20d1b67099cc",
      "4db124b75e7e5d11b8f0962d310c4a5f39dd385a260abfa8f9867fd20217f079",
  };
  const auto strong = attacks::attack_by_name("em_strong");
  ASSERT_TRUE(strong.has_value());
  ASSERT_GT(strong->modulation_depth, 0.0);
  auto digest = [](const attacks::InjectionAttack& attack,
                   std::uint64_t seed) {
    auto trng = attacks::make_attacked_trng(attack, 200, seed);
    std::vector<std::uint8_t> bits(2048);
    trng.generate_into(bits);
    return sha256_hex(std::span<const std::uint8_t>(bits));
  };
  for (std::size_t i = 0; i < std::size(kBitSeeds); ++i) {
    EXPECT_EQ(digest(attacks::em_harmonic_attack(0.3), kBitSeeds[i]),
              weak_pins[i])
        << "em_harmonic_attack(0.3), seed " << kBitSeeds[i];
    EXPECT_EQ(digest(*strong, kBitSeeds[i]), strong_pins[i])
        << "em_strong, seed " << kBitSeeds[i];
  }
}

std::string cell_array_digest(trng::CellArrayConfig cfg, std::uint64_t seed) {
  cfg.seed = seed;
  trng::CellArrayTrng gen(cfg);
  std::vector<std::uint8_t> bits(2048);
  gen.generate_into(bits);
  return sha256_hex(std::span<const std::uint8_t>(bits));
}

TEST(StreamPins, CampaignCellArrayBits) {
  const char* const pins[3] = {
      "c4a3454709b01f3f161623dea90f52dae0286992560215ea4486f99f689ea8d7",
      "fad0d18ad971fff85bc905f6da2af75d868f2a606014c53f2181547c8ebe7e72",
      "a906e67250d83c5d188f4863fe30063d7adce8ea571e09f83e23d1612e02fc99",
  };
  const auto cfg = trng::cell_array_from_technology(
      transistor::technology_node("90nm"), 3, 5, 1.0, false);
  ASSERT_EQ(cfg.sample_divider, 64u);
  ASSERT_EQ(cfg.flicker_amplitude, 0.0);
  for (std::size_t i = 0; i < std::size(kBitSeeds); ++i)
    EXPECT_EQ(cell_array_digest(cfg, kBitSeeds[i]), pins[i])
        << "seed " << kBitSeeds[i];
}

TEST(StreamPins, BenchCellArrayBits) {
  const char* const pins[3] = {
      "d4b4a7c1e7dda9754eea414d50163f0801c0ce8d5d8b730b6cdf3d599d964d77",
      "b2a115216ddcfda9c3fecf3277dbc8980250cb727be54cf38fd829820052a7bc",
      "a7bd1875f42b8b6cfc2d90b31c30507380700ee8ef102064530166466a5254fb",
  };
  trng::CellArrayConfig cfg;  // bench_cell_array's bench_config()
  cfg.cells = 3;
  cfg.base_stages = 5;
  cfg.stage_delay = 100e-12;
  cfg.sigma_stage = 30e-12;
  cfg.sample_divider = 8;
  cfg.decimation = 16;
  for (std::size_t i = 0; i < std::size(kBitSeeds); ++i)
    EXPECT_EQ(cell_array_digest(cfg, kBitSeeds[i]), pins[i])
        << "seed " << kBitSeeds[i];
}

TEST(StreamPins, PaperPairCounterCounts) {
  const std::vector<std::int64_t> pins{1002, 1003, 1003, 1003, 1003, 1003,
                                       1003, 1003, 1003, 1003, 1003, 1003,
                                       1003, 1003, 1003, 1003};
  auto counts = [] {
    auto c1 = oscillator::paper_single_config(1);
    auto c2 = oscillator::paper_single_config(2);
    c1.mismatch = +1.5e-3;
    c2.mismatch = -1.5e-3;
    oscillator::RingOscillator osc1(c1), osc2(c2);
    measurement::DifferentialCounter counter(osc1, osc2);
    return counter.count_windows(1000, 16);
  };
  EXPECT_EQ(counts(), pins) << "SIMD on";
  simd::ScopedForceScalar scalar;
  EXPECT_EQ(counts(), pins) << "SIMD forced off";
}

}  // namespace
