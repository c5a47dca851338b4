// The bit-stream pipeline layer (trng/bit_stream.hpp): batched sources
// vs their per-bit streams (at 1 and 8 threads), chunked transform pushes
// vs one push of the whole stream, and pipeline composition/carry-state
// semantics across block boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trng/bit_stream.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"
#include "trng/online_test.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::trng;

class GlobalPoolWidth {
 public:
  explicit GlobalPoolWidth(std::size_t width) {
    ThreadPool::global().resize(width);
  }
  ~GlobalPoolWidth() { ThreadPool::global().resize(0); }
};

/// Ideal iid BitSource for transform/pipeline tests.
class RngBitSource final : public BitSource {
 public:
  explicit RngBitSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }

 private:
  Xoshiro256pp rng_;
};

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  RngBitSource src(seed);
  return src.generate_bits(n);
}

/// One push of the whole stream through a fresh transform: the one-shot
/// reference the chunked and piped paths must reproduce.
std::vector<std::uint8_t> one_shot(BitTransform&& transform,
                                   std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  transform.push(bits, out);
  return out;
}

// --- (a) generate_into == repeated next_bit, at 1 and 8 threads ----------

/// `n` bits of `a` pulled through generate_into chunks of 1, 63, 64 and
/// 65 bits, each followed by one next_bit(): the sampling clock's
/// 64-edge draw-ahead refills at every offset inside a chunk and inside
/// a next_bit() run, so both entry points cross it. Must equal `n`
/// next_bit() calls on `b`.
void expect_interleaved_matches_next_bit(BitSource& a, BitSource& b,
                                         std::size_t n) {
  constexpr std::size_t kChunks[] = {1, 63, 64, 65};
  std::vector<std::uint8_t> mixed, stepped(n);
  for (std::size_t i = 0; mixed.size() < n; ++i) {
    const std::size_t chunk = std::min(kChunks[i % 4], n - mixed.size());
    std::vector<std::uint8_t> block(chunk);
    a.generate_into(block);
    mixed.insert(mixed.end(), block.begin(), block.end());
    if (mixed.size() < n) mixed.push_back(a.next_bit());
  }
  for (auto& bit : stepped) bit = b.next_bit();
  EXPECT_EQ(mixed, stepped);
}

TEST(BitSourceBatch, EroGenerateIntoMatchesNextBit) {
  for (std::size_t width : {1u, 8u}) {
    GlobalPoolWidth pool(width);
    auto a = paper_trng(40, 21);
    auto b = paper_trng(40, 21);
    const std::size_t n = 20'000;
    std::vector<std::uint8_t> batched(n), stepped(n);
    a.generate_into(batched);
    for (auto& bit : stepped) bit = b.next_bit();
    EXPECT_EQ(batched, stepped) << "width " << width;
    auto c = paper_trng(40, 21);
    auto d = paper_trng(40, 21);
    SCOPED_TRACE(width);
    expect_interleaved_matches_next_bit(c, d, 2'000);
  }
}

TEST(BitSourceBatch, MultiRingGenerateIntoMatchesNextBit) {
  for (std::size_t width : {1u, 8u}) {
    GlobalPoolWidth pool(width);
    auto a = paper_multi_ring(4, 60, 22);
    auto b = paper_multi_ring(4, 60, 22);
    const std::size_t n = 20'000;
    std::vector<std::uint8_t> batched(n), stepped(n);
    a.generate_into(batched);
    for (auto& bit : stepped) bit = b.next_bit();
    EXPECT_EQ(batched, stepped) << "width " << width;
    auto c = paper_multi_ring(4, 60, 22);
    auto d = paper_multi_ring(4, 60, 22);
    SCOPED_TRACE(width);
    expect_interleaved_matches_next_bit(c, d, 2'000);
  }
}

TEST(BitSourceBatch, MultiRingBatchBitIdenticalAcrossThreadCounts) {
  std::vector<std::uint8_t> one(30'000), eight(30'000);
  {
    GlobalPoolWidth pool(1);
    auto gen = paper_multi_ring(8, 60, 23);
    gen.generate_into(one);
  }
  {
    GlobalPoolWidth pool(8);
    auto gen = paper_multi_ring(8, 60, 23);
    gen.generate_into(eight);
  }
  EXPECT_EQ(one, eight);
}

TEST(BitSourceBatch, InterleavingBatchAndNextBitContinuesOneStream) {
  // next_bit / generate_into pull consecutive bits of the SAME stream.
  auto a = paper_multi_ring(2, 60, 24);
  auto b = paper_multi_ring(2, 60, 24);
  std::vector<std::uint8_t> mixed;
  mixed.reserve(3000);
  for (int i = 0; i < 500; ++i) mixed.push_back(a.next_bit());
  std::vector<std::uint8_t> block(2000);
  a.generate_into(block);
  mixed.insert(mixed.end(), block.begin(), block.end());
  for (int i = 0; i < 500; ++i) mixed.push_back(a.next_bit());
  EXPECT_EQ(mixed, b.generate_bits(3000));
}

// --- (b) chunked pushes == one push of a fresh transform ----------------

TEST(Transforms, ChunkedPushesMatchOneShot) {
  // Carry state across block boundaries: feeding awkward odd-sized chunks
  // (including empty ones) must reproduce the one-shot output exactly.
  const auto bits = random_bits(10'007, 34);
  const std::size_t chunks[] = {1, 3, 7, 0, 64, 997, 2, 0, 5000, 10'007};
  auto run_chunked = [&](BitTransform& t) {
    std::vector<std::uint8_t> out;
    std::size_t pos = 0, k = 0;
    while (pos < bits.size()) {
      const std::size_t take =
          std::min(chunks[k % std::size(chunks)], bits.size() - pos);
      t.push(std::span<const std::uint8_t>(bits).subspan(pos, take), out);
      pos += take;
      ++k;
    }
    return out;
  };
  XorDecimateTransform x3(3);
  EXPECT_EQ(run_chunked(x3), one_shot(XorDecimateTransform(3), bits));
  VonNeumannTransform vn;
  EXPECT_EQ(run_chunked(vn), one_shot(VonNeumannTransform(), bits));
}

TEST(Transforms, OneBitPushesMatchOneShot) {
  // Fully adversarial carry: the entire stream fed ONE BIT AT A TIME,
  // with an empty push between every bit, must equal the one-shot path
  // (the cell-array decimator pulls through exactly this machinery).
  const auto bits = random_bits(4001, 36);
  VonNeumannTransform vn;
  XorDecimateTransform x16(16);
  std::vector<std::uint8_t> vn_out, x16_out;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const std::span<const std::uint8_t> one(bits.data() + i, 1);
    vn.push(one, vn_out);
    vn.push({}, vn_out);
    x16.push(one, x16_out);
    x16.push({}, x16_out);
  }
  EXPECT_EQ(vn_out, one_shot(VonNeumannTransform(), bits));
  EXPECT_EQ(x16_out, one_shot(XorDecimateTransform(16), bits));
}

TEST(Transforms, PrimeChunkSchedulesMatchOneShot) {
  // Prime-sized chunks never align with the factor-16 group size or the
  // von Neumann pair boundary, so every push leaves carried state.
  const auto bits = random_bits(20'011, 37);
  const std::size_t primes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31};
  for (std::size_t factor : {2u, 4u, 16u}) {
    XorDecimateTransform t(factor);
    VonNeumannTransform vn;
    std::vector<std::uint8_t> t_out, vn_out;
    std::size_t pos = 0, k = 0;
    while (pos < bits.size()) {
      const std::size_t take =
          std::min(primes[k % std::size(primes)], bits.size() - pos);
      const auto chunk = std::span<const std::uint8_t>(bits).subspan(pos, take);
      t.push(chunk, t_out);
      vn.push(chunk, vn_out);
      pos += take;
      ++k;
    }
    EXPECT_EQ(t_out, one_shot(XorDecimateTransform(factor), bits))
        << "factor " << factor;
    EXPECT_EQ(vn_out, one_shot(VonNeumannTransform(), bits));
  }
}

TEST(Transforms, CellArrayDecimatorChainStableUnderTinyBlocks) {
  // The cell-array's 64x chain (von Neumann + parity over 16) pumped in
  // 1-bit raw blocks equals the 4096-bit pumping bit for bit.
  auto run = [](std::size_t block_bits) {
    RngBitSource src(38);
    Pipeline pipe(src, block_bits);
    pipe.add_transform(std::make_unique<VonNeumannTransform>())
        .add_transform(std::make_unique<XorDecimateTransform>(16));
    return pipe.generate_bits(400);
  };
  const auto reference = run(4096);
  EXPECT_EQ(run(1), reference);
  EXPECT_EQ(run(61), reference);
}

TEST(Transforms, ResetDropsCarriedState) {
  XorDecimateTransform t(4);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> open{1, 1};
  const std::vector<std::uint8_t> group{0, 0, 0, 0};
  t.push(open, out);  // open group of 2
  t.reset();
  t.push(group, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0}));
  EXPECT_THROW(XorDecimateTransform(0), ContractViolation);
}

// --- (c) pipeline composition order and cross-block carry ----------------

TEST(Pipeline, AppliesTransformsInInsertionOrder) {
  // xor/2 then von Neumann != von Neumann then xor/2; each pipeline must
  // match the equivalent one-shot composition on the raw stream it
  // actually consumed.
  for (bool xor_first : {true, false}) {
    RngBitSource src(41);
    Pipeline pipe(src, /*block_bits=*/1024);
    if (xor_first) {
      pipe.add_transform(std::make_unique<XorDecimateTransform>(2))
          .add_transform(std::make_unique<VonNeumannTransform>());
    } else {
      pipe.add_transform(std::make_unique<VonNeumannTransform>())
          .add_transform(std::make_unique<XorDecimateTransform>(2));
    }
    const auto piped = pipe.generate_bits(4000);
    const auto raw = random_bits(pipe.raw_bits(), 41);  // same seed/stream
    const auto manual =
        xor_first
            ? one_shot(VonNeumannTransform(),
                       one_shot(XorDecimateTransform(2), raw))
            : one_shot(XorDecimateTransform(2),
                       one_shot(VonNeumannTransform(), raw));
    ASSERT_GE(manual.size(), piped.size());
    EXPECT_TRUE(std::equal(piped.begin(), piped.end(), manual.begin()))
        << "xor_first " << xor_first;
  }
}

TEST(Pipeline, OddBlockSizesDontChangeTheStream) {
  // Von Neumann pairs and XOR groups spanning block boundaries: a
  // pipeline pumping 101-bit raw blocks equals one pumping 4096-bit
  // blocks bit for bit.
  auto run = [](std::size_t block_bits) {
    RngBitSource src(42);
    Pipeline pipe(src, block_bits);
    pipe.add_transform(std::make_unique<VonNeumannTransform>())
        .add_transform(std::make_unique<XorDecimateTransform>(3));
    return pipe.generate_bits(3000);
  };
  EXPECT_EQ(run(101), run(4096));
  EXPECT_EQ(run(1), run(4096));
}

TEST(Pipeline, EmptyPipelineIsPassthrough) {
  RngBitSource src(43);
  Pipeline pipe(src, 257);
  EXPECT_EQ(pipe.generate_bits(5000), random_bits(5000, 43));
}

TEST(Pipeline, NestsAsABitSource) {
  // A pipeline is itself a BitSource, so pipelines compose.
  RngBitSource src(44);
  Pipeline inner(src, 512);
  inner.add_transform(std::make_unique<XorDecimateTransform>(2));
  Pipeline outer(inner, 128);
  outer.add_transform(std::make_unique<XorDecimateTransform>(2));
  const auto nested = outer.generate_bits(2000);
  const auto raw = random_bits(inner.raw_bits(), 44);
  const auto manual = one_shot(XorDecimateTransform(2),
                               one_shot(XorDecimateTransform(2), raw));
  ASSERT_GE(manual.size(), nested.size());
  EXPECT_TRUE(std::equal(nested.begin(), nested.end(), manual.begin()));
}

TEST(Pipeline, MonitorTapWatchesRawStream) {
  // Healthy iid source: per-256-bit-window ones counts have variance
  // 256/4 = 64; a monitor calibrated to that reference must not alarm.
  OnlineTestConfig cfg;
  cfg.n_cycles = 256;
  cfg.windows_per_test = 32;
  cfg.reference_sigma2 = 64.0;
  cfg.false_alarm = 1e-6;
  ThermalNoiseMonitor healthy(cfg, /*f0=*/1.0);

  RngBitSource src(45);
  Pipeline pipe(src, 1024);
  pipe.add_transform(std::make_unique<XorDecimateTransform>(2))
      .attach_tap(healthy);
  const auto out = pipe.generate_bits(100'000);
  EXPECT_EQ(out.size(), 100'000u);
  EXPECT_GE(pipe.raw_bits(), 200'000u);
  EXPECT_GT(healthy.decisions(), 15u);
  EXPECT_EQ(healthy.alarms(), 0u);

  // A locked (constant) source collapses the window variance to zero:
  // every completed decision must alarm, even though the pipeline's
  // post-processing hides the lock-up downstream.
  class ConstantSource final : public BitSource {
   public:
    std::uint8_t next_bit() override { return 1; }
  } locked;
  ThermalNoiseMonitor watchdog(cfg, /*f0=*/1.0);
  Pipeline bad(locked, 1024);
  bad.add_transform(std::make_unique<XorDecimateTransform>(2))
      .attach_tap(watchdog);
  (void)bad.generate_bits(50'000);
  EXPECT_GT(watchdog.decisions(), 0u);
  EXPECT_EQ(watchdog.alarms(), watchdog.decisions());
}

TEST(Pipeline, MonitorAndRecorderSeeTheSameRawBlocks) {
  // A monitor and a recorder attached to one pipeline observe the same
  // raw blocks: replaying the recorded bits as counter values through
  // push_count reproduces the tapped monitor's decisions and alarms.
  // A reference at a quarter of the true window variance makes the
  // decisions alarm, so the alarm counts carry information too.
  OnlineTestConfig cfg;
  cfg.n_cycles = 100;
  cfg.windows_per_test = 16;
  cfg.reference_sigma2 = 25.0 / 4.0;
  ThermalNoiseMonitor tapped(cfg, /*f0=*/1.0);
  RawRecorderTap recorder;

  RngBitSource src(47);
  Pipeline pipe(src, 1000);  // windows straddle block boundaries
  pipe.add_transform(std::make_unique<VonNeumannTransform>())
      .attach_tap(tapped)
      .attach_tap(recorder);
  (void)pipe.generate_bits(20'000);
  ASSERT_EQ(recorder.bits().size(), pipe.raw_bits());

  ThermalNoiseMonitor replayed(cfg, /*f0=*/1.0);
  std::int64_t ones = 0;
  OnlineTestDecision decision;
  for (std::size_t i = 0; i < recorder.bits().size(); ++i) {
    ones += recorder.bits()[i];
    if ((i + 1) % cfg.n_cycles == 0) (void)replayed.push_count(ones, &decision);
  }
  EXPECT_GT(tapped.decisions(), 10u);
  EXPECT_GT(tapped.alarms(), 0u);
  EXPECT_EQ(tapped.decisions(), replayed.decisions());
  EXPECT_EQ(tapped.alarms(), replayed.alarms());
}

TEST(Pipeline, RejectsBadConfig) {
  RngBitSource src(46);
  EXPECT_THROW(Pipeline(src, 0), ContractViolation);
  Pipeline pipe(src);
  EXPECT_THROW(pipe.add_transform(nullptr), ContractViolation);
  EXPECT_THROW(pipe.generate_bits(0), ContractViolation);
}

// --- (d) byte-first output path ------------------------------------------

TEST(ByteApi, PackUnpackRoundTripMsbFirst) {
  const auto bits = random_bits(8 * 257, 47);
  std::vector<std::byte> bytes(bits.size() / 8);
  pack_bits_msb_first(bits, bytes);
  // Spot-check the convention: bit 0 lands in the MSB of byte 0.
  std::uint8_t b0 = 0;
  for (int i = 0; i < 8; ++i)
    b0 = static_cast<std::uint8_t>((b0 << 1) | bits[static_cast<size_t>(i)]);
  EXPECT_EQ(bytes[0], std::byte{b0});
  std::vector<std::uint8_t> back(bits.size());
  unpack_bits_msb_first(bytes, back);
  EXPECT_EQ(back, bits);
}

TEST(ByteApi, PackUnpackExhaustiveSingleBytePatterns) {
  // Every 8-bit pattern round-trips through pack -> unpack -> pack.
  for (unsigned v = 0; v < 256; ++v) {
    std::vector<std::uint8_t> bits(8);
    for (int i = 0; i < 8; ++i)
      bits[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((v >> (7 - i)) & 1u);
    std::vector<std::byte> byte(1);
    pack_bits_msb_first(bits, byte);
    EXPECT_EQ(byte[0], static_cast<std::byte>(v));
    std::vector<std::uint8_t> back(8);
    unpack_bits_msb_first(byte, back);
    EXPECT_EQ(back, bits) << "pattern " << v;
  }
}

TEST(ByteApi, PackUnpackRoundTripAcrossSizes) {
  // 0-length and every byte count up to 64 round-trip exactly; bit
  // values other than {0,1} only contribute their low bit.
  pack_bits_msb_first({}, {});  // 0-length is a valid no-op
  unpack_bits_msb_first({}, {});
  for (std::size_t n_bytes = 0; n_bytes <= 64; ++n_bytes) {
    const auto bits = n_bytes ? random_bits(8 * n_bytes, 52 + n_bytes)
                              : std::vector<std::uint8_t>{};
    std::vector<std::byte> bytes(n_bytes);
    pack_bits_msb_first(bits, bytes);
    std::vector<std::uint8_t> back(8 * n_bytes);
    unpack_bits_msb_first(bytes, back);
    EXPECT_EQ(back, bits) << "n_bytes " << n_bytes;
  }
}

TEST(ByteApi, PackUnpackRejectNonMultipleOf8) {
  // bits.size() must be exactly 8 * bytes.size(); anything else is a
  // contract violation, not silent truncation.
  std::vector<std::uint8_t> bits(9);
  std::vector<std::byte> bytes(1);
  EXPECT_THROW(pack_bits_msb_first(bits, bytes), ContractViolation);
  EXPECT_THROW(unpack_bits_msb_first(bytes, bits), ContractViolation);
  bits.resize(7);
  EXPECT_THROW(pack_bits_msb_first(bits, bytes), ContractViolation);
  EXPECT_THROW(unpack_bits_msb_first(bytes, bits), ContractViolation);
  bits.resize(8);
  EXPECT_NO_THROW(pack_bits_msb_first(bits, bytes));
  EXPECT_THROW(pack_bits_msb_first(bits, {}), ContractViolation);
}

TEST(ByteApi, FillBytesMatchesPackedBitStream) {
  // The default BitSource byte path and the Pipeline fast path must both
  // equal pack(generate_bits) on the same stream.
  const std::size_t n_bytes = 4099;  // not a multiple of the staging chunk
  RngBitSource a(48), b(48);
  const auto bytes = a.generate_bytes(n_bytes);
  const auto bits = b.generate_bits(8 * n_bytes);
  std::vector<std::byte> packed(n_bytes);
  pack_bits_msb_first(bits, packed);
  EXPECT_EQ(bytes, packed);

  RngBitSource c(49), d(49);
  Pipeline pipe_bytes(c, 1024), pipe_bits(d, 1024);
  pipe_bytes.add_transform(std::make_unique<XorDecimateTransform>(2));
  pipe_bits.add_transform(std::make_unique<XorDecimateTransform>(2));
  const auto pb = pipe_bytes.generate_bytes(n_bytes);
  const auto pbits = pipe_bits.generate_bits(8 * n_bytes);
  std::vector<std::byte> ppacked(n_bytes);
  pack_bits_msb_first(pbits, ppacked);
  EXPECT_EQ(pb, ppacked);
}

TEST(ByteApi, InterleavingBytesAndBitsContinuesOneStream) {
  // fill_bytes consumes whole bytes of the same underlying bit stream, so
  // bytes-then-bits equals the contiguous bit stream.
  RngBitSource a(50), b(50);
  std::vector<std::byte> head(64);
  a.fill_bytes(head);
  const auto tail = a.generate_bits(100);
  const auto all = b.generate_bits(8 * 64 + 100);
  std::vector<std::byte> head_ref(64);
  pack_bits_msb_first(std::span<const std::uint8_t>(all).first(8 * 64),
                      head_ref);
  EXPECT_EQ(head, head_ref);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), all.begin() + 8 * 64));
}

}  // namespace
