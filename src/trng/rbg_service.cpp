#include "trng/rbg_service.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/contracts.hpp"

namespace ptrng::trng {

namespace {

constexpr char kStreamPersonalization[] = "ptrng.rbg.stream";

std::array<std::byte, 8> be64_bytes(std::uint64_t value) {
  std::array<std::byte, 8> out;
  for (std::size_t i = 0; i < 8; ++i)
    out[7 - i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  return out;
}

}  // namespace

RandomByteService::RandomByteService(BitSource& source, HealthEngine& health,
                                     const RbgServiceConfig& config)
    : config_(config),
      health_(health),
      pipeline_(source, config.pipeline_block_bits),
      conditioner_(config.conditioner),
      ring_(config.ring_capacity) {
  // A ring block must be able to (re)seed a DRBG at full strength.
  PTRNG_EXPECTS(config.conditioner.block_bytes >=
                HashDrbg::kSecurityStrengthBytes);
  pipeline_.attach_tap(health_);
}

RandomByteService::~RandomByteService() { stop(); }

void RandomByteService::start() {
  if (running_.load(std::memory_order_acquire)) return;
  // Root seed drawn synchronously on the caller's thread: open_stream
  // is then a pure function of (source stream, consumer id) — the
  // producer's scheduling never touches it.
  root_seed_ = conditioner_.condition_block(pipeline_);
  publish_health_state();
  running_.store(true, std::memory_order_release);
  producer_ = std::thread([this] { producer_loop(); });
}

void RandomByteService::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(ack_mutex_);
    ack_done_ = true;
  }
  ack_cv_.notify_all();
  if (producer_.joinable()) producer_.join();
  state_.store(ServiceState::kStopped, std::memory_order_release);
}

void RandomByteService::publish_health_state() {
  ServiceState next = ServiceState::kNominal;
  switch (health_.state()) {
    case HealthState::kNominal:
      next = ServiceState::kNominal;
      break;
    case HealthState::kIntermittentAlarm:
      next = ServiceState::kDegraded;
      break;
    case HealthState::kTotalFailure:
      next = ServiceState::kFailed;
      break;
  }
  state_.store(next, std::memory_order_release);
}

void RandomByteService::producer_loop() {
  std::vector<std::byte> pending;
  bool have_pending = false;
  Backoff ring_backoff;

  while (running_.load(std::memory_order_acquire)) {
    const ServiceState st = state_.load(std::memory_order_acquire);

    if (st == ServiceState::kFailed) {
      have_pending = false;  // suspect block: never publish it
      if (ack_requested_.exchange(false, std::memory_order_acq_rel)) {
        // The producer is the only thread that ever touches the
        // engine, so the operator reset is routed through here. Bits
        // buffered in the pipeline and blocks still queued in the ring
        // predate the failure and are suspect: drop both, so the
        // recovery pull below is raw bits the re-primed engine actually
        // observes, and the first post-recovery reseeds can only be
        // backed by post-recovery blocks.
        health_.acknowledge_failure();
        pipeline_.discard_buffered();
        for (std::vector<std::byte> stale; ring_.try_pop(stale);) {
          blocks_discarded_.fetch_add(1, std::memory_order_relaxed);
        }
        std::vector<std::byte> fresh = conditioner_.condition_block(pipeline_);
        publish_health_state();
        if (state_.load(std::memory_order_acquire) ==
            ServiceState::kNominal) {
          // Recovery: the fresh block backs the first post-failure
          // reseeds; the epoch bump forces every stream through one.
          (void)ring_.try_push(std::move(fresh));
          blocks_produced_.fetch_add(1, std::memory_order_relaxed);
          epoch_.fetch_add(1, std::memory_order_acq_rel);
        }
        {
          std::lock_guard<std::mutex> lock(ack_mutex_);
          ack_done_ = true;
        }
        ack_cv_.notify_all();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      continue;
    }

    if (st == ServiceState::kDegraded) {
      // Keep the raw stream flowing so the engine can count healthy
      // bits back to nominal — but none of it is published.
      have_pending = false;
      observe_discarded_block();
      publish_health_state();
      continue;
    }

    // Nominal: condition a block, re-check health (an alarm during the
    // pull taints the block), publish into the ring.
    if (!have_pending) {
      pending = conditioner_.condition_block(pipeline_);
      have_pending = true;
      publish_health_state();
      if (state_.load(std::memory_order_acquire) != ServiceState::kNominal) {
        have_pending = false;
        blocks_discarded_.fetch_add(1, std::memory_order_relaxed);
        pipeline_.discard_buffered();  // cached bits share the taint
        continue;
      }
    }
    if (ring_.try_push(std::move(pending))) {
      have_pending = false;
      blocks_produced_.fetch_add(1, std::memory_order_relaxed);
      ring_backoff.reset();
    } else {
      // Ring full: consumers are behind (or idle). The raw source must
      // stay under observation regardless of demand — a failure with no
      // consumer attached still has to latch — so pump a discarded
      // block through the health tap between backoff pauses.
      ring_backoff.pause();
      observe_discarded_block();
      publish_health_state();
    }
  }
}

void RandomByteService::observe_discarded_block() {
  // A block's raw bits through the pipeline and its health tap, with no
  // conditioning: nobody reads the result.
  discard_bits_.resize(
      conditioner_.raw_bits_needed(config_.conditioner.block_bytes));
  pipeline_.generate_into(discard_bits_);
  blocks_discarded_.fetch_add(1, std::memory_order_relaxed);
}

RandomByteService::Stream RandomByteService::open_stream(
    std::uint64_t consumer_id) {
  PTRNG_EXPECTS(running_.load(std::memory_order_acquire));
  HashDrbg drbg(config_.drbg);
  const auto nonce = be64_bytes(consumer_id);
  const auto* pers_chars = kStreamPersonalization;
  std::span<const std::byte> personalization{
      reinterpret_cast<const std::byte*>(pers_chars),
      sizeof(kStreamPersonalization) - 1};
  drbg.instantiate(root_seed_, nonce, personalization);
  Stream stream(*this, consumer_id, std::move(drbg));
  stream.epoch_seen_ = epoch();
  return stream;
}

void RandomByteService::acknowledge_failure() {
  if (!running_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(ack_mutex_);
  ack_done_ = false;
  ack_requested_.store(true, std::memory_order_release);
  ack_cv_.wait(lock, [this] {
    return ack_done_ || !running_.load(std::memory_order_acquire);
  });
}

bool RandomByteService::pop_block_within_budget(
    std::vector<std::byte>& block) {
  const auto deadline = std::chrono::steady_clock::now() + config_.wait_budget;
  Backoff backoff;
  for (;;) {
    if (ring_.try_pop(block)) return true;
    const ServiceState st = state_.load(std::memory_order_acquire);
    if (st == ServiceState::kFailed || st == ServiceState::kStopped) {
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    backoff.pause();
  }
}

RandomByteService::FillStatus RandomByteService::Stream::fill(
    std::span<std::byte> out) {
  RandomByteService& svc = *service_;
  const auto deadline =
      std::chrono::steady_clock::now() + svc.config_.wait_budget;

  // Health gate: serve only in nominal; ride out degraded states up to
  // the wait budget; fail fast on total failure.
  Backoff backoff;
  for (;;) {
    const ServiceState st = svc.state();
    if (st == ServiceState::kNominal) break;
    if (st == ServiceState::kStopped) return FillStatus::kNotStarted;
    if (st == ServiceState::kFailed) return FillStatus::kFailed;
    if (std::chrono::steady_clock::now() >= deadline)
      return FillStatus::kDegraded;
    backoff.pause();
  }

  // A post-failure epoch bump obliges a reseed before the next byte;
  // prediction resistance obliges one before every request.
  bool need_reseed = drbg_.config().prediction_resistance ||
                     epoch_seen_ != svc.epoch();

  const std::size_t chunk_max = drbg_.config().max_bytes_per_request;
  std::vector<std::byte> block;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t n = std::min(chunk_max, out.size() - done);
    const auto chunk = out.subspan(done, n);
    if (need_reseed) {
      if (!svc.pop_block_within_budget(block)) {
        return svc.state() == ServiceState::kFailed ? FillStatus::kFailed
                                                    : FillStatus::kStarved;
      }
      drbg_.reseed(block);
      epoch_seen_ = svc.epoch();
      need_reseed = drbg_.config().prediction_resistance;
    }
    switch (drbg_.generate(chunk)) {
      case HashDrbg::Status::kOk:
        done += n;
        break;
      case HashDrbg::Status::kNeedReseed:
        need_reseed = true;  // interval exhausted: reseed and retry
        break;
      case HashDrbg::Status::kNotInstantiated:
      case HashDrbg::Status::kRequestTooLarge:
        // Unreachable through this API (open_stream instantiates,
        // chunks respect the ceiling) — treat as a hard failure.
        return FillStatus::kFailed;
    }
  }
  bytes_ += out.size();
  return FillStatus::kOk;
}

}  // namespace ptrng::trng
