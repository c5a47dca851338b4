// Conditioning-layer battery (trng/conditioning.hpp):
//  * SHA-256 core against the FIPS 180-4 example vectors (one-block,
//    two-block, empty, 1M-'a'), including split incremental updates;
//  * hash_df structural properties + a pinned 55-byte vector;
//  * Hash_DRBG KATs in CAVP format (instantiate / [reseed] / generate /
//    generate, pinned 64-byte outputs). The pins were generated from
//    this implementation at PR 7 and INDEPENDENTLY cross-checked
//    against a from-scratch Python/hashlib Hash_DRBG — they are
//    regression pins anchored to a verified SHA-256 core, not official
//    CAVP response files;
//  * Hash_DRBG state-machine behaviour (reseed interval, prediction
//    resistance, reseed source, request ceiling);
//  * HashConditioner entropy ledger and ConditioningTransform
//    streaming equivalence.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "trng/bit_stream.hpp"
#include "trng/conditioning.hpp"

namespace ptrng::trng {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    out[i] = static_cast<std::byte>(s[i]);
  return out;
}

std::vector<std::byte> seq_bytes(std::size_t n, unsigned start) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((start + i) & 0xff);
  return v;
}

/// Ideal iid BitSource for conditioner tests.
class RngBitSource final : public BitSource {
 public:
  explicit RngBitSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }

 private:
  Xoshiro256pp rng_;
};

// --- SHA-256 FIPS 180-4 vectors ------------------------------------------

TEST(Sha256Kat, Fips180EmptyMessage) {
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Kat, Fips180OneBlock) {
  EXPECT_EQ(to_hex(Sha256::digest(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Kat, Fips180TwoBlock) {
  const auto msg = bytes_of(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(to_hex(Sha256::digest(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Kat, Fips180MillionA) {
  Sha256 hash;
  const auto chunk = bytes_of(std::string(1000, 'a'));
  for (int i = 0; i < 1000; ++i) hash.update(chunk);
  EXPECT_EQ(to_hex(hash.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kat, SplitUpdatesMatchOneShot) {
  // Every split point of the two-block message, including splits inside
  // the internal 64-byte block buffer.
  const auto msg = bytes_of(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const auto ref = Sha256::digest(msg);
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 hash;
    hash.update(std::span<const std::byte>(msg).first(cut));
    hash.update(std::span<const std::byte>(msg).subspan(cut));
    EXPECT_EQ(hash.finalize(), ref) << "cut " << cut;
  }
}

TEST(Sha256Kat, HexRoundTrip) {
  const auto msg = seq_bytes(19, 0xe0);
  EXPECT_EQ(from_hex(to_hex(msg)), msg);
}

TEST(Sha256Kat, EmptyUpdateIsANoOp) {
  // An empty span (null data pointer) with 0 and with 3 bytes buffered.
  const auto msg = bytes_of("abc");
  for (const std::size_t buffered : {0u, 3u}) {
    const auto head = std::span<const std::byte>(msg).first(buffered);
    Sha256 hash;
    hash.update(head);
    hash.update({});
    hash.update(std::span<const std::byte>(msg).subspan(buffered));
    hash.update({});
    EXPECT_EQ(hash.finalize(), Sha256::digest(msg)) << buffered;
  }
}

// --- hashgen kernel (sha256_counter_digests) -------------------------------

using Counter = std::array<std::byte, HashDrbg::kSeedLenBytes>;

/// Oracle: one Sha256::digest per counter value, then +1 mod 2^440.
std::vector<std::byte> oracle_hashgen(Counter v, std::size_t n) {
  std::vector<std::byte> out;
  while (out.size() < n) {
    const auto d = Sha256::digest(v);
    out.insert(out.end(), d.begin(),
               d.begin() + static_cast<std::ptrdiff_t>(
                               std::min(d.size(), n - out.size())));
    for (std::size_t i = v.size(); i-- > 0;) {
      v[i] = static_cast<std::byte>(std::to_integer<unsigned>(v[i]) + 1);
      if (v[i] != std::byte{0}) break;
    }
  }
  return out;
}

Counter random_counter(std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  Counter v;
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xff);
  return v;
}

void expect_matches_oracle(const Counter& v, std::size_t n) {
  std::vector<std::byte> out(n);
  sha256_counter_digests(v, out);
  EXPECT_EQ(out, oracle_hashgen(v, n)) << "n " << n << " V " << to_hex(v);
}

TEST(Sha256CounterDigests, RandomCountersMatchTheOracleAtEveryLength) {
  for (const std::size_t n : {1u, 31u, 32u, 33u, 4096u, 65535u, 65536u})
    expect_matches_oracle(random_counter(n), n);
}

TEST(Sha256CounterDigests, CarryIntoByte51RebuildsThePrefix) {
  // Bytes 52..54 = ffffff: the second digest's counter carries into
  // byte 51. Also start a few steps below the carry.
  for (const unsigned below : {0u, 1u, 2u}) {
    Counter v = random_counter(7 + below);
    v[52] = v[53] = std::byte{0xff};
    v[54] = static_cast<std::byte>(0xff - below);
    for (const std::size_t n : {32u, 33u, 96u, 200u})
      expect_matches_oracle(v, n);
  }
}

TEST(Sha256CounterDigests, CarryAcrossWordBoundaries) {
  // Bytes 49..54 all ff: the carry runs through W12 into W11.
  Counter v = random_counter(11);
  for (std::size_t i = 49; i < v.size(); ++i) v[i] = std::byte{0xff};
  expect_matches_oracle(v, 160);
}

TEST(Sha256CounterDigests, AllOnesWrapsToZero) {
  // V = 2^440 - 1: the second digest is SHA-256 of 55 zero bytes.
  Counter v;
  v.fill(std::byte{0xff});
  expect_matches_oracle(v, 128);
  const Counter zero{};
  std::vector<std::byte> out(64);
  sha256_counter_digests(v, out);
  const auto d = Sha256::digest(zero);
  EXPECT_TRUE(std::equal(d.begin(), d.end(), out.begin() + 32));
}

// --- hash_df --------------------------------------------------------------

TEST(HashDf, PinnedVector55Bytes) {
  // Pinned at PR 7; cross-checked against an independent Python
  // implementation of SP 800-90A §10.3.1.
  const auto out = hash_df(seq_bytes(16, 0x10), 55);
  EXPECT_EQ(to_hex(out),
            "0624dfa0f7b4345a1b7180e2c7e9b10e19a85260e87b1b32c226eeb7831ee6f1"
            "10b39391b9ef05f40f82aeb0c1156471598122feed3bcc");
}

TEST(HashDf, FirstDigestIsCounterOneConstruction) {
  // A 32-byte request is exactly SHA-256(0x01 || be32(256) || input).
  const auto input = seq_bytes(24, 0x30);
  const auto out = hash_df(input, 32);
  const std::array<std::byte, 5> header = {
      std::byte{0x01},  // counter starts at 1
      std::byte{0x00}, std::byte{0x00}, std::byte{0x01},
      std::byte{0x00},  // be32(256): requested bits
  };
  Sha256 hash;
  hash.update(header);
  hash.update(input);
  const auto ref = hash.finalize();
  EXPECT_TRUE(std::equal(out.begin(), out.end(), ref.begin()));
}

TEST(HashDf, MultiPartEqualsConcatenation) {
  const auto a = seq_bytes(7, 0x01);
  const auto b = seq_bytes(0, 0x00);  // empty part is transparent
  const auto c = seq_bytes(40, 0x50);
  std::vector<std::byte> concat;
  concat.insert(concat.end(), a.begin(), a.end());
  concat.insert(concat.end(), c.begin(), c.end());

  std::array<std::byte, 64> split_out, concat_out;
  const std::span<const std::byte> parts[] = {a, b, c};
  hash_df(parts, split_out);
  hash_df(concat, concat_out);
  EXPECT_EQ(split_out, concat_out);
}

TEST(HashDf, OutputLengthIsDomainSeparating) {
  // be32(out_bits) is hashed in, so a shorter request is NOT a prefix
  // of a longer one.
  const auto input = seq_bytes(16, 0x77);
  const auto short_out = hash_df(input, 16);
  const auto long_out = hash_df(input, 32);
  EXPECT_FALSE(std::equal(short_out.begin(), short_out.end(),
                          long_out.begin()));
}

// --- Hash_DRBG KATs -------------------------------------------------------
//
// CAVP COUNT-style fixed inputs:
//   EntropyInput     = 00..1f   (32 bytes)
//   Nonce            = a0..a7   (8 bytes)
//   EntropyInputReseed = 80..9f (32 bytes)
//   AdditionalInput  = 40..4f   (16 bytes)
//   Personalization  = c0..d7   (24 bytes)

struct DrbgKatInputs {
  std::vector<std::byte> entropy = seq_bytes(32, 0x00);
  std::vector<std::byte> nonce = seq_bytes(8, 0xa0);
  std::vector<std::byte> entropy_reseed = seq_bytes(32, 0x80);
  std::vector<std::byte> additional = seq_bytes(16, 0x40);
  std::vector<std::byte> personalization = seq_bytes(24, 0xc0);
};

TEST(HashDrbgKat, NoReseedTwoGenerateCalls) {
  const DrbgKatInputs in;
  HashDrbg drbg;
  drbg.instantiate(in.entropy, in.nonce);
  EXPECT_EQ(drbg.reseed_counter(), 1u);
  std::vector<std::byte> out(64);
  ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "e2027282edeabf1c3020a0292495fd8770fd977996422c2b2a61cb1a3cf5be38"
            "17c5593c4d20853f4b9a11a74c387c87ea91735cb2d8684ef5329c8717f6fd58");
  ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "2226444f304969d42f4212cce101dfa93df275085fcd396ca6c2982c02d6ae75"
            "bb1d81b8ac273a09c24383e41dbdfe32573b4ae7aa4b9b8497c434c283a6cd61");
  EXPECT_EQ(drbg.reseed_counter(), 3u);
}

TEST(HashDrbgKat, ReseedBetweenGenerateCalls) {
  const DrbgKatInputs in;
  HashDrbg drbg;
  drbg.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> out(64);
  ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
  drbg.reseed(in.entropy_reseed);
  EXPECT_EQ(drbg.reseed_counter(), 1u);
  ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "c2ae58de6f771e7842109d8ab34e71959b869a29b774ed9a4f2e125ce38e8e92"
            "992e10ff95303baece4dcb02eeb93b65b9ea5c48f87e524d4bea9288f0ee5ddc");
}

TEST(HashDrbgKat, AdditionalInputOnGenerate) {
  const DrbgKatInputs in;
  HashDrbg drbg;
  drbg.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> out(64);
  ASSERT_EQ(drbg.generate(out, in.additional), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "8ce6331e796a32f33c71a5f947ee7183d1e3f7375aeb278f1b07ce91b9f6afd7"
            "5a5a815287c07f66917c74aa4910314d6b7f0c0d0dd5f4bb13e9a53e03c6950a");
  ASSERT_EQ(drbg.generate(out, in.additional), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "526f13f9e953690da926163881dc02eee69a9e01988135ac23c75cc656e3c90e"
            "de040fc161f87fbc6079448976fdbf63750ff8699337832766accb6f7bac601d");
}

TEST(HashDrbgKat, PersonalizationString) {
  const DrbgKatInputs in;
  HashDrbg drbg;
  drbg.instantiate(in.entropy, in.nonce, in.personalization);
  std::vector<std::byte> out(64);
  ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
  EXPECT_EQ(to_hex(out),
            "8c5792efdf38363b58c2ecf053d76da4626fb53b064fb991f497d6afdcdecb79"
            "097eb269dcdc9b5508b97ea2cbd2c25d3ee566014fabd5ea554a986ade9e723e");
}

TEST(HashDrbgKat, RequestSizeDoesNotChangeTheStream) {
  // hashgen is a pure counter-mode expansion of V: one 64-byte request
  // equals the concatenation of no requests smaller than it — but two
  // REQUESTS advance V twice, so 2x32 differs from 1x64 after the
  // first 32 bytes. Pin the exact prefix property.
  const DrbgKatInputs in;
  HashDrbg one, two;
  one.instantiate(in.entropy, in.nonce);
  two.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> out64(64), out32(32);
  ASSERT_EQ(one.generate(out64), HashDrbg::Status::kOk);
  ASSERT_EQ(two.generate(out32), HashDrbg::Status::kOk);
  EXPECT_TRUE(std::equal(out32.begin(), out32.end(), out64.begin()));
}

TEST(HashDrbgKat, FullRequestIsHashgenOverTheSeededV) {
  // A 64 KiB request is the oracle hashgen over V = hash_df(entropy ||
  // nonce), and every shorter first request is a prefix of it.
  const DrbgKatInputs in;
  std::vector<std::byte> seed_material = in.entropy;
  seed_material.insert(seed_material.end(), in.nonce.begin(), in.nonce.end());
  Counter v;
  hash_df(seed_material, v);

  HashDrbg drbg;
  drbg.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> full(drbg.config().max_bytes_per_request);
  ASSERT_EQ(full.size(), 65536u);
  ASSERT_EQ(drbg.generate(full), HashDrbg::Status::kOk);
  EXPECT_EQ(full, oracle_hashgen(v, full.size()));
  for (const std::size_t n : {1u, 33u, 4096u, 65535u}) {
    HashDrbg shorter;
    shorter.instantiate(in.entropy, in.nonce);
    std::vector<std::byte> out(n);
    ASSERT_EQ(shorter.generate(out), HashDrbg::Status::kOk);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), full.begin())) << n;
  }
}

// --- Hash_DRBG state machine ---------------------------------------------

TEST(HashDrbgState, ReseedWithoutAdditionalInput) {
  // No additional input hashes an empty (null) span through hash_df; it
  // must equal an explicit empty span over real storage.
  const DrbgKatInputs in;
  HashDrbg a, b;
  a.instantiate(in.entropy, in.nonce);
  b.instantiate(in.entropy, in.nonce);
  a.reseed(in.entropy_reseed);
  b.reseed(in.entropy_reseed,
           std::span<const std::byte>(in.additional).first(0));
  std::vector<std::byte> out_a(64), out_b(64);
  ASSERT_EQ(a.generate(out_a), HashDrbg::Status::kOk);
  ASSERT_EQ(b.generate(out_b), HashDrbg::Status::kOk);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(a.reseeds(), 1u);
}

TEST(HashDrbgState, UninstantiatedAndOversizeRequestsAreRejected) {
  HashDrbg drbg;
  std::vector<std::byte> out(16);
  EXPECT_EQ(drbg.generate(out), HashDrbg::Status::kNotInstantiated);

  const DrbgKatInputs in;
  drbg.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> big(drbg.config().max_bytes_per_request + 1);
  EXPECT_EQ(drbg.generate(big), HashDrbg::Status::kRequestTooLarge);
  EXPECT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
}

TEST(HashDrbgState, ReseedIntervalExhaustionDemandsReseed) {
  HashDrbgConfig cfg;
  cfg.reseed_interval = 3;
  HashDrbg drbg(cfg);
  const DrbgKatInputs in;
  drbg.instantiate(in.entropy, in.nonce);
  std::vector<std::byte> out(16);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk) << "request " << i;
  EXPECT_EQ(drbg.generate(out), HashDrbg::Status::kNeedReseed);
  drbg.reseed(in.entropy_reseed);
  EXPECT_EQ(drbg.generate(out), HashDrbg::Status::kOk);
}

TEST(HashDrbgState, ReseedSourceServesIntervalAndPredictionResistance) {
  // With a reseed source installed, interval exhaustion reseeds
  // transparently; with prediction_resistance, EVERY request reseeds.
  HashDrbgConfig cfg;
  cfg.reseed_interval = 2;
  HashDrbg drbg(cfg);
  const DrbgKatInputs in;
  drbg.instantiate(in.entropy, in.nonce);
  std::uint32_t pulls = 0;
  drbg.set_reseed_source([&pulls](std::span<std::byte> out_entropy) {
    ++pulls;
    for (std::size_t i = 0; i < out_entropy.size(); ++i)
      out_entropy[i] = static_cast<std::byte>((pulls + i) & 0xff);
  });
  std::vector<std::byte> out(16);
  for (int i = 0; i < 6; ++i)
    ASSERT_EQ(drbg.generate(out), HashDrbg::Status::kOk) << "request " << i;
  EXPECT_EQ(pulls, 2u);  // after requests 2 and 4 exhaust the interval
  EXPECT_EQ(drbg.reseeds(), 2u);

  HashDrbgConfig pr_cfg;
  pr_cfg.prediction_resistance = true;
  HashDrbg pr(pr_cfg);
  pr.instantiate(in.entropy, in.nonce);
  EXPECT_EQ(pr.generate(out), HashDrbg::Status::kNeedReseed);  // no source
  std::uint32_t pr_pulls = 0;
  pr.set_reseed_source([&pr_pulls](std::span<std::byte> out_entropy) {
    ++pr_pulls;
    for (auto& b : out_entropy) b = std::byte{0x5a};
  });
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(pr.generate(out), HashDrbg::Status::kOk);
  EXPECT_EQ(pr_pulls, 4u);
}

TEST(HashDrbgState, DistinctNoncesGiveDistinctStreams) {
  const DrbgKatInputs in;
  HashDrbg a, b;
  a.instantiate(in.entropy, seq_bytes(8, 0x01));
  b.instantiate(in.entropy, seq_bytes(8, 0x02));
  std::vector<std::byte> out_a(64), out_b(64);
  ASSERT_EQ(a.generate(out_a), HashDrbg::Status::kOk);
  ASSERT_EQ(b.generate(out_b), HashDrbg::Status::kOk);
  EXPECT_NE(out_a, out_b);
}

// --- HashConditioner ------------------------------------------------------

TEST(HashConditioner, RawBitsNeededMatchesTheLedgerFormula) {
  ConditionerConfig cfg;
  cfg.h_min = 0.5;
  HashConditioner cond(cfg);
  // 32 bytes out + 64-bit 90C margin at h=0.5: (256+64)/0.5 = 640 bits.
  EXPECT_EQ(cond.raw_bits_needed(32), 640u);

  ConditionerConfig full;
  full.h_min = 1.0;
  EXPECT_EQ(HashConditioner(full).raw_bits_needed(32), 320u);

  ConditionerConfig no_margin;
  no_margin.h_min = 1.0;
  no_margin.full_entropy_margin = false;
  EXPECT_EQ(HashConditioner(no_margin).raw_bits_needed(32), 256u);

  // Fractional h_min rounds the pull UP, then up to whole bytes:
  // ceil(320 / 0.997) = 321 bits -> 328 (whole raw bytes).
  ConditionerConfig frac;
  frac.h_min = 0.997;  // the paper's per-raw-bit assessment
  EXPECT_EQ(HashConditioner(frac).raw_bits_needed(32), 328u);
}

TEST(HashConditioner, ConditionIsDeterministicAndAccounted) {
  ConditionerConfig cfg;
  cfg.h_min = 0.5;
  cfg.block_bytes = 32;
  HashConditioner cond(cfg);
  RngBitSource src_a(0xabc), src_b(0xabc);
  const auto block_a = cond.condition_block(src_a);
  EXPECT_EQ(cond.bits_in(), 640u);
  EXPECT_EQ(cond.entropy_in(), 640u * min_entropy_bits(0.5));
  EXPECT_EQ(cond.bytes_out(), 32u);

  HashConditioner cond2(cfg);
  EXPECT_EQ(block_a, cond2.condition_block(src_b));  // same raw stream

  // The conditioned block is hash_df of the packed raw pull.
  RngBitSource src_c(0xabc);
  const auto raw = src_c.generate_bits(640);
  std::vector<std::byte> packed(80);
  pack_bits_msb_first(raw, packed);
  EXPECT_EQ(block_a, hash_df(packed, 32));
}

TEST(ConditioningTransform, ChunkedPushesMatchOneShotAndConditioner) {
  ConditionerConfig cfg;
  cfg.h_min = 0.5;
  cfg.block_bytes = 32;
  ConditioningTransform one_shot(cfg);
  ConditioningTransform chunked(cfg);
  EXPECT_EQ(one_shot.bits_per_block(), 640u);

  RngBitSource src(0x123);
  const auto raw = src.generate_bits(3 * 640 + 123);  // 3 blocks + leftover
  std::vector<std::uint8_t> out_a, out_b;
  one_shot.push(raw, out_a);
  const std::size_t cuts[] = {1, 640, 7, 500, 900, 4000};
  std::size_t pos = 0, k = 0;
  while (pos < raw.size()) {
    const std::size_t take =
        std::min(cuts[k % std::size(cuts)], raw.size() - pos);
    chunked.push(std::span<const std::uint8_t>(raw).subspan(pos, take),
                 out_b);
    pos += take;
    ++k;
  }
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(one_shot.blocks_out(), 3u);
  EXPECT_EQ(out_a.size(), 3u * 256u);

  // First emitted block == HashConditioner on the same raw prefix.
  ConditionerConfig ref_cfg = cfg;
  HashConditioner ref(ref_cfg);
  RngBitSource src2(0x123);
  const auto ref_block = ref.condition_block(src2);
  std::vector<std::uint8_t> ref_bits(256);
  unpack_bits_msb_first(ref_block, ref_bits);
  EXPECT_TRUE(std::equal(ref_bits.begin(), ref_bits.end(), out_a.begin()));
}

TEST(ConditioningTransform, ComposesInsideAPipeline) {
  // The conditioner as a pipeline stage: output bytes come out of the
  // byte-first surface, and raw accounting matches bits_per_block.
  RngBitSource src(0x456);
  Pipeline pipe(src, 1280);
  ConditionerConfig cfg;
  cfg.h_min = 0.5;
  pipe.add_transform(std::make_unique<ConditioningTransform>(cfg));
  const auto bytes = pipe.generate_bytes(64);  // two conditioned blocks
  EXPECT_EQ(bytes.size(), 64u);
  EXPECT_GE(pipe.raw_bits(), 2u * 640u);
}

TEST(EntropyAccountingTap, LedgerAndFullEntropyBytes) {
  EntropyAccountingTap tap(0.5);
  EXPECT_EQ(tap.full_entropy_bytes(), 0u);
  RngBitSource src(0x789);
  Pipeline pipe(src, 1024);
  pipe.attach_tap(tap);
  std::vector<std::uint8_t> out(10'240);
  pipe.generate_into(out);
  EXPECT_EQ(tap.bits_seen(), 10'240u);
  EXPECT_EQ(tap.entropy_seen(), 10'240u * min_entropy_bits(0.5));
  // 5120 entropy bits - 64 margin = 5056 bits -> 632 full-entropy bytes.
  EXPECT_EQ(tap.full_entropy_bytes(), 632u);
}

TEST(ConditionerContracts, RejectBadConfigs) {
  ConditionerConfig bad_h;
  bad_h.h_min = 0.0;
  EXPECT_THROW(HashConditioner{bad_h}, ContractViolation);
  ConditionerConfig big_h;
  big_h.h_min = 1.5;
  EXPECT_THROW(HashConditioner{big_h}, ContractViolation);
  HashDrbgConfig bad_interval;
  bad_interval.reseed_interval = 0;
  EXPECT_THROW(HashDrbg{bad_interval}, ContractViolation);
}

}  // namespace
}  // namespace ptrng::trng
