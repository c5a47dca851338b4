// RandomByteService: the end-to-end RBG (ROADMAP item 1, second half).
//
//   Pipeline (raw bits, health-tapped) --> HashConditioner
//     --> SpmcRing<conditioned 256-bit blocks>   [producer thread]
//     --> per-consumer HashDrbg streams          [N consumer threads]
//
// One producer thread owns the pipeline, the conditioner AND the
// health engine (the engine is attached as a pipeline tap, so alarms
// fire synchronously inside the producer's pump — no cross-thread
// health state). Consumers interact only with atomics, the lock-free
// ring and their own DRBG, so fill() is wait-free against other
// consumers on the fast path.
//
// Stream isolation & determinism (docs/ARCHITECTURE.md §7): every
// consumer stream is a private Hash_DRBG instantiated from
// (root seed, consumer id) — NOT from ring pop order — so the byte
// streams of a given (seed, id) pair are identical for any thread
// count and any scheduling, and distinct ids give computationally
// disjoint streams. Ring blocks only ever enter a stream through
// reseeds (interval exhaustion, prediction resistance, or a
// post-failure epoch bump), which are the deliberately
// schedule-dependent ingredient.
//
// Health gating (the SP 800-90B §4.4 story, wired end to end):
//   nominal      -> blocks published, fill() serves.
//   degraded     -> (engine intermittent) producer keeps pumping each
//                   block's raw bits through the health tap so the
//                   engine can recover, but conditions and publishes
//                   none of them (counted as discarded blocks);
//                   fill() blocks up to wait_budget, then errors.
//   failed       -> (engine total failure) producer parks; fill()
//                   fails immediately. acknowledge_failure() routes
//                   the engine reset THROUGH the producer thread,
//                   which drops the stale ring blocks, publishes one
//                   fresh block, bumps the epoch and only then serves
//                   again. The root seed is not redrawn; instead every
//                   stream, also one opened after the recovery, is
//                   forced through a reseed from a post-recovery ring
//                   block before its next byte.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/spmc_ring.hpp"
#include "trng/bit_stream.hpp"
#include "trng/conditioning.hpp"
#include "trng/continuous_health.hpp"

namespace ptrng::trng {

/// Service-level health gate (the consumer-visible projection of
/// HealthState).
enum class ServiceState : std::uint8_t {
  kNominal,   ///< producing and serving
  kDegraded,  ///< health intermittent: producing, not publishing
  kFailed,    ///< health total failure: parked until acknowledge
  kStopped,   ///< not started (or stopped)
};

struct RbgServiceConfig {
  /// Conditioner settings; block_bytes is the ring payload size and
  /// must be >= HashDrbg::kSecurityStrengthBytes (one reseed's worth).
  ConditionerConfig conditioner{};
  /// Per-consumer DRBG settings (reseed interval, prediction
  /// resistance, request ceiling).
  HashDrbgConfig drbg{};
  /// Conditioned-block ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 64;
  /// How long fill() may block while degraded or starved before
  /// returning an error.
  std::chrono::milliseconds wait_budget{100};
  /// Raw block size of the internal pipeline pump [bits].
  std::size_t pipeline_block_bits = 4096;
};

/// Concurrent byte service over one raw BitSource.
class RandomByteService {
 public:
  /// Outcome of a Stream::fill call.
  enum class FillStatus : std::uint8_t {
    kOk,
    kDegraded,    ///< health left nominal and did not recover in budget
    kFailed,      ///< total failure: no bytes until acknowledge + reseed
    kStarved,     ///< needed a reseed block, ring empty past budget
    kNotStarted,  ///< service not running
  };

  /// A consumer handle: one private DRBG over the service's conditioned
  /// entropy. Movable, not copyable; must not outlive the service; each
  /// instance is single-threaded (one handle per consumer thread).
  class Stream {
   public:
    /// Fills `out` (any size; requests larger than the DRBG per-request
    /// ceiling are served in ceiling-sized chunks). On any non-kOk
    /// status, `out` holds no usable bytes.
    [[nodiscard]] FillStatus fill(std::span<std::byte> out);

    [[nodiscard]] std::uint64_t consumer_id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t bytes_served() const noexcept {
      return bytes_;
    }
    [[nodiscard]] std::uint64_t reseeds() const noexcept {
      return drbg_.reseeds();
    }

   private:
    friend class RandomByteService;
    Stream(RandomByteService& service, std::uint64_t id, HashDrbg drbg)
        : service_(&service), id_(id), drbg_(std::move(drbg)) {}

    RandomByteService* service_;
    std::uint64_t id_;
    HashDrbg drbg_;
    std::uint64_t epoch_seen_ = 0;
    std::uint64_t bytes_ = 0;
  };

  /// The service taps `health` onto an internal Pipeline over `source`
  /// and owns the producer thread. Neither reference is owned; both
  /// must outlive the service. `source` must not be pumped by anyone
  /// else while the service runs.
  RandomByteService(BitSource& source, HealthEngine& health,
                    const RbgServiceConfig& config = {});
  ~RandomByteService();

  RandomByteService(const RandomByteService&) = delete;
  RandomByteService& operator=(const RandomByteService&) = delete;

  /// Draws the root seed (synchronously, so open_stream is
  /// deterministic in the source stream) and launches the producer.
  /// No-op if already running.
  void start();

  /// Parks and joins the producer. Streams fail with kNotStarted.
  void stop();

  /// Opens the stream for `consumer_id`: a Hash_DRBG instantiated from
  /// (root seed, consumer id, "ptrng.rbg.stream"). Same (source seed,
  /// id) -> same byte stream, for any thread count; distinct ids ->
  /// disjoint streams. Requires start().
  [[nodiscard]] Stream open_stream(std::uint64_t consumer_id);

  /// Operator acknowledgement after total failure: asks the PRODUCER
  /// to reset the health engine, drop the buffered bits and the queued
  /// ring blocks, and pull one fresh block; if the engine stays nominal
  /// it publishes that block and bumps the reseed epoch. Blocks until
  /// the producer has done so (or the service is stopped). The root
  /// seed is not redrawn: every stream, including one opened later,
  /// reseeds from a post-recovery ring block before its next byte.
  void acknowledge_failure();

  [[nodiscard]] ServiceState state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  /// Reseed epoch: the number of post-failure recoveries, 0 until the
  /// first. Streams start at epoch 0 and lazily follow it.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t blocks_produced() const noexcept {
    return blocks_produced_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_discarded() const noexcept {
    return blocks_discarded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t ring_size_approx() const noexcept {
    return ring_.size_approx();
  }
  [[nodiscard]] const RbgServiceConfig& config() const noexcept {
    return config_;
  }
  /// The block conditioner and its entropy ledger. Read it only while
  /// the producer is stopped.
  [[nodiscard]] const HashConditioner& conditioner() const noexcept {
    return conditioner_;
  }

 private:
  void producer_loop();
  /// Pops one conditioned block within the wait budget (false: starved
  /// or service left nominal).
  bool pop_block_within_budget(std::vector<std::byte>& block);
  /// Maps the engine state to the service gate (producer thread only).
  void publish_health_state();
  /// Pulls one block's worth of raw bits through the pipeline (so the
  /// health tap sees them) without conditioning, and counts it
  /// discarded (producer thread only).
  void observe_discarded_block();

  RbgServiceConfig config_;
  HealthEngine& health_;
  Pipeline pipeline_;
  HashConditioner conditioner_;
  SpmcRing<std::vector<std::byte>> ring_;

  std::thread producer_;
  std::atomic<bool> running_{false};
  std::atomic<ServiceState> state_{ServiceState::kStopped};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> ack_requested_{false};
  std::atomic<std::uint64_t> blocks_produced_{0};
  std::atomic<std::uint64_t> blocks_discarded_{0};
  std::mutex ack_mutex_;
  std::condition_variable ack_cv_;
  bool ack_done_ = true;  ///< guarded by ack_mutex_

  std::vector<std::byte> root_seed_;  ///< const after start()
  std::vector<std::uint8_t> discard_bits_;  ///< producer's raw staging
};

}  // namespace ptrng::trng
