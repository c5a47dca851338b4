// RandomByteService end-to-end (trng/rbg_service.hpp):
//  * per-consumer stream determinism: the bytes of (source seed,
//    consumer id) are identical at 1/2/8 PTRNG_THREADS and for any
//    consumer scheduling, and distinct ids give distinct streams;
//  * concurrent serving with reseeds riding the SPMC ring;
//  * health gating: a forced total failure stops byte output (every
//    fill fails) until acknowledge_failure() routes an engine reset +
//    root reseed through the producer, after which streams are forced
//    through a fresh reseed (epoch bump) before their next byte.
// The TSan CI job runs this suite with PTRNG_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trng/bit_stream.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"
#include "trng/rbg_service.hpp"

namespace ptrng::trng {
namespace {

class GlobalPoolWidth {
 public:
  explicit GlobalPoolWidth(std::size_t width) {
    ThreadPool::global().resize(width);
  }
  ~GlobalPoolWidth() { ThreadPool::global().resize(0); }
};

/// Ideal iid BitSource (cheap; thread-safe only via external ownership).
class RngBitSource final : public BitSource {
 public:
  explicit RngBitSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }

 private:
  Xoshiro256pp rng_;
};

/// Healthy iid source that can be switched to stuck-at-1 (and back) from
/// the test thread while the producer pumps it.
class SwitchableSource final : public BitSource {
 public:
  explicit SwitchableSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    if (stuck_.load(std::memory_order_acquire)) return 1;
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }
  void set_stuck(bool stuck) {
    stuck_.store(stuck, std::memory_order_release);
  }

 private:
  Xoshiro256pp rng_;
  std::atomic<bool> stuck_{false};
};

RbgServiceConfig quiet_config() {
  // No interval reseeds: streams never touch the ring, so their bytes
  // are a pure function of (source stream, consumer id).
  RbgServiceConfig cfg;
  cfg.conditioner.h_min = 0.5;
  cfg.drbg.reseed_interval = 1ull << 40;
  cfg.wait_budget = std::chrono::milliseconds(2000);
  return cfg;
}

// --- stream isolation & determinism --------------------------------------

TEST(RbgService, StreamsAreDeterministicAcrossThreadCountsAndScheduling) {
  constexpr std::uint64_t kSourceSeed = 0x90b;
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kBytes = 4096;

  std::vector<std::vector<std::byte>> reference(kConsumers);
  for (const std::size_t width : {1u, 2u, 8u}) {
    GlobalPoolWidth pool(width);
    auto source = paper_trng(40, kSourceSeed);
    HealthEngine engine{ContinuousHealthConfig{}};
    RandomByteService service(source, engine, quiet_config());
    service.start();

    std::vector<std::vector<std::byte>> got(kConsumers,
                                            std::vector<std::byte>(kBytes));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&service, &got, c] {
        auto stream = service.open_stream(/*consumer_id=*/c + 1);
        // Many small fills: exercises per-request chaining.
        for (std::size_t off = 0; off < kBytes; off += 256) {
          ASSERT_EQ(stream.fill({got[c].data() + off, 256}),
                    RandomByteService::FillStatus::kOk);
        }
        EXPECT_EQ(stream.bytes_served(), got[c].size());
      });
    }
    for (auto& t : threads) t.join();
    service.stop();

    for (std::size_t c = 0; c < kConsumers; ++c) {
      if (reference[c].empty()) {
        reference[c] = got[c];
      } else {
        EXPECT_EQ(got[c], reference[c])
            << "consumer " << c << " width " << width;
      }
    }
  }
  // Distinct consumer ids give distinct streams.
  EXPECT_NE(reference[0], reference[1]);
  EXPECT_NE(reference[1], reference[2]);
}

TEST(RbgService, FillSizeDoesNotChangeAStream) {
  // One 1024-byte fill == four 256-byte fills, byte for byte: request
  // chunking is internal to fill().
  RngBitSource src_a(0x11), src_b(0x11);
  HealthEngine engine_a{ContinuousHealthConfig{}};
  HealthEngine engine_b{ContinuousHealthConfig{}};
  auto cfg = quiet_config();
  cfg.drbg.max_bytes_per_request = 256;  // force internal chunking
  RandomByteService service_a(src_a, engine_a, cfg);
  RandomByteService service_b(src_b, engine_b, cfg);
  service_a.start();
  service_b.start();
  auto stream_a = service_a.open_stream(7);
  auto stream_b = service_b.open_stream(7);
  std::vector<std::byte> one(1024), four(1024);
  ASSERT_EQ(stream_a.fill(one), RandomByteService::FillStatus::kOk);
  for (std::size_t off = 0; off < four.size(); off += 256)
    ASSERT_EQ(stream_b.fill({four.data() + off, 256}),
              RandomByteService::FillStatus::kOk);
  EXPECT_EQ(one, four);
}

// --- concurrent serving with ring reseeds --------------------------------

TEST(RbgService, ConcurrentConsumersWithRingReseeds) {
  RngBitSource source(0x22);
  HealthEngine engine{ContinuousHealthConfig{}};
  RbgServiceConfig cfg;
  cfg.conditioner.h_min = 0.5;
  cfg.drbg.reseed_interval = 4;  // frequent ring pops
  cfg.wait_budget = std::chrono::milliseconds(5000);
  RandomByteService service(source, engine, cfg);
  service.start();

  constexpr std::size_t kConsumers = 8;
  std::atomic<std::uint64_t> total_reseeds{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&service, &total_reseeds, c] {
      auto stream = service.open_stream(100 + c);
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(stream.fill(buf), RandomByteService::FillStatus::kOk)
            << "consumer " << c << " fill " << i;
      }
      total_reseeds.fetch_add(stream.reseeds(), std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  // 50 requests at interval 4: every consumer reseeded repeatedly.
  EXPECT_GE(total_reseeds.load(), kConsumers * 10u);
  EXPECT_GT(service.blocks_produced(), 0u);
  service.stop();
  EXPECT_EQ(service.state(), ServiceState::kStopped);
}

// --- health gating --------------------------------------------------------

TEST(RbgService, TotalFailureStopsOutputUntilAcknowledgeAndReseed) {
  SwitchableSource source(0x33);
  HealthEngine engine{ContinuousHealthConfig{}};
  RbgServiceConfig cfg = quiet_config();
  cfg.wait_budget = std::chrono::milliseconds(50);  // fail fast in-test
  RandomByteService service(source, engine, cfg);
  service.start();
  auto stream = service.open_stream(1);
  std::vector<std::byte> buf(64);
  ASSERT_EQ(stream.fill(buf), RandomByteService::FillStatus::kOk);
  const std::uint64_t reseeds_before = stream.reseeds();
  const std::uint64_t epoch_before = service.epoch();

  // Stuck source: the APT alarms once per window; three unrecovered
  // alarms escalate to total failure while the producer pumps.
  source.set_stuck(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.state() != ServiceState::kFailed) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "service never reached kFailed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // No bytes while failed — and an acknowledge with the source STILL
  // stuck must re-alarm (the recovery pull is all stuck bits), so the
  // epoch never bumps and the service lands back in kFailed.
  EXPECT_EQ(stream.fill(buf), RandomByteService::FillStatus::kFailed);
  service.acknowledge_failure();
  EXPECT_EQ(service.epoch(), epoch_before);
  while (service.state() != ServiceState::kFailed) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "service did not re-fail on a still-stuck source";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stream.fill(buf), RandomByteService::FillStatus::kFailed);

  // Healthy again + acknowledged: the producer resets the engine,
  // reseeds the root and bumps the epoch; the stream is forced through
  // a reseed before its next byte.
  source.set_stuck(false);
  service.acknowledge_failure();
  EXPECT_EQ(service.state(), ServiceState::kNominal);
  EXPECT_EQ(service.epoch(), epoch_before + 1);
  ASSERT_EQ(stream.fill(buf), RandomByteService::FillStatus::kOk);
  EXPECT_EQ(stream.reseeds(), reseeds_before + 1);
  service.stop();
}

TEST(RbgService, DiscardedBlocksFeedTheHealthTapWithoutConditioning) {
  // No consumer, so the ring fills and every further block is discarded.
  // A discarded block's raw bits still pass the health tap, exactly one
  // block's worth each, but never reach the conditioner: the engine sees
  // the conditioner's raw bits plus one block per discarded block, and
  // the conditioner's ledger holds only the root, the produced blocks
  // and at most one block waiting for ring space. One pump per block
  // keeps the tap's count exact.
  RngBitSource source(0x66);
  HealthEngine engine{ContinuousHealthConfig{}};
  RbgServiceConfig cfg = quiet_config();
  cfg.ring_capacity = 2;
  const std::size_t raw_bits =
      HashConditioner(cfg.conditioner).raw_bits_needed(
          cfg.conditioner.block_bytes);
  cfg.pipeline_block_bits = raw_bits;
  RandomByteService service(source, engine, cfg);
  service.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.blocks_discarded() < 50) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the producer never discarded 50 blocks";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.stop();
  const std::uint64_t produced = service.blocks_produced();
  const std::uint64_t discarded = service.blocks_discarded();
  EXPECT_EQ(engine.alarms(), 0u);
  const std::uint64_t conditioned = service.conditioner().bits_in();
  EXPECT_EQ(engine.bits_seen(), conditioned + discarded * raw_bits);
  EXPECT_GE(conditioned, (1 + produced) * raw_bits);
  EXPECT_LE(conditioned, (2 + produced) * raw_bits);
}

TEST(RbgService, FillAfterStopReportsNotStarted) {
  RngBitSource source(0x44);
  HealthEngine engine{ContinuousHealthConfig{}};
  RandomByteService service(source, engine, quiet_config());
  service.start();
  auto stream = service.open_stream(5);
  std::vector<std::byte> buf(16);
  ASSERT_EQ(stream.fill(buf), RandomByteService::FillStatus::kOk);
  service.stop();
  EXPECT_EQ(stream.fill(buf), RandomByteService::FillStatus::kNotStarted);
}

TEST(RbgService, PredictionResistanceReseedsEveryRequest) {
  RngBitSource source(0x55);
  HealthEngine engine{ContinuousHealthConfig{}};
  RbgServiceConfig cfg = quiet_config();
  cfg.drbg.prediction_resistance = true;
  cfg.wait_budget = std::chrono::milliseconds(5000);
  RandomByteService service(source, engine, cfg);
  service.start();
  auto stream = service.open_stream(9);
  std::vector<std::byte> buf(64);
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(stream.fill(buf), RandomByteService::FillStatus::kOk) << i;
  EXPECT_EQ(stream.reseeds(), 5u);
  service.stop();
}

}  // namespace
}  // namespace ptrng::trng
