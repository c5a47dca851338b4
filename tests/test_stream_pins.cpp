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
// such a change re-pins them in the same commit and says so. The (i)
// pins were last re-pinned when advance_sum pooled its per-stage
// residual draws into one; the (ii) pins when the sampling clock began
// drawing its flicker in 64-edge blocks (FilterBankFlicker::
// advance_sums); the (iii) pins when the cell array's gate-chain cells
// moved to one jitter-sized jump per tick; the (iv) pin was set when the
// counter moved onto advance_to_block.
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
      "a88cd2d320b13d0e4bcb04e2c14d8078c1dff7dfdc3fa3b729c0e7c33569a86e",
      "a60ea83b994d36e17df0c591b03bdcd5d2f76ba77354482d383336c52dc4cc78",
      "a3e66f5dfa7f1472be7acaf2725687d02fd86c9085d33288d9259fffa6d9cc5f",
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
      "16dd2e764ea747a4a7ddce91b185fa1a36775635cebeed1c86870c433d337354",
      "6d6d4091fbc97776e9cc47f7d2c3c7d7d4f6185e82ba81eb6bbf6a223834a2e9",
      "a72a5d1043d9946b77241291a1364b11118b3b46006ac5d6b2e1920028ca8f5c",
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
      "d88374d719ee1f044672345230e082c093bb96775087f056c5194ed3d050aa26",
      "3f45677a81d922e816baea454a00cf2dfe1c910916f285794419db7d5a14c033",
      "b5c07e90aacfe45b45aeba92f09784830445bb279ed43ae2710bff4be88830ec",
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
      "4c7bb1074ead23ea2f5226254fb2a3098f133b7742516c4e2fee2186be11a62b",
      "4673d13850fb402f4a8a85c7891168aca89465d1c53c404ad004d192ae32a3a5",
      "9569d9ede7e615666be2e454b0854d11052026f7724237602ab1f70ae6ba5737",
  };
  const char* const strong_pins[3] = {
      "831099a30550ca5ebd74459f72408f96cf33645fc90c1f3415b2f099d13af0ef",
      "6ca94ec120b893e658ad723c29543366e612bdcf03eb1f5b415c253876b90050",
      "4dab86a3c1101675fae45aed9e5823e68650f08119b2a946cf6bc6b8d2946069",
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
      "9b7c04cc7f9039af8f67bf44db54fd4d2a13edb0f8c0f72e65e5b2f9b29a9c82",
      "6261ea3135435aa56376f4bdb5412068671586dcb5555715c5aac601990d3be9",
      "518feb89d41b121893777774ba369fd064d910129df27ca484a4523ccaf080db",
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
      "f6abc6f541640cdf12a0927ebbe7deae1d6bdd01bfb17d07dbb348aaa1023fe9",
      "13886bbe387fac8fc565666dd09dd0525be33783d06085a8d4cb7e8b737f3556",
      "348edb362f7f7ebb66eda8a83f5be4b4201377dd2acc264338e52cc731feca9e",
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
  const std::vector<std::int64_t> pins{1003, 1003, 1003, 1003, 1003, 1003,
                                       1003, 1004, 1003, 1003, 1003, 1003,
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
