#include "trng/multi_ring.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "oscillator/oscillator_pair.hpp"

namespace ptrng::trng {

MultiRingTrng::MultiRingTrng(const oscillator::RingOscillatorConfig& base,
                             const MultiRingTrngConfig& config)
    : config_(config),
      sampling_([&] {
        auto cfg = base;
        cfg.seed = base.seed ^ 0x5a5a5a5a5a5aULL;
        return cfg;
      }()) {
  PTRNG_EXPECTS(config.rings >= 1);
  PTRNG_EXPECTS(config.divider >= 1);
  PTRNG_EXPECTS(config.duty_cycle > 0.0 && config.duty_cycle < 1.0);
  PTRNG_EXPECTS(config.frequency_spread >= 0.0 &&
                config.frequency_spread < 0.2);

  rings_.reserve(config.rings);
  for (std::size_t r = 0; r < config.rings; ++r) {
    auto cfg = base;
    // Deterministic frequency fan centred on the base mismatch.
    const double frac =
        (config.rings == 1)
            ? 0.0
            : (static_cast<double>(r) /
                   static_cast<double>(config.rings - 1) -
               0.5);
    cfg.mismatch = base.mismatch + config.frequency_spread * frac;
    // Decorrelated per-ring stream, independent of how sampling is later
    // chunked (same derivation rule as parallel per-chunk RNG streams).
    cfg.seed = chunk_seed(base.seed, r);
    rings_.emplace_back(cfg);
    // Prime the first edge bracket.
    rings_.back().osc.next_period();
    rings_.back().bracket.next = rings_.back().osc.edge_time();
  }
}

std::uint8_t MultiRingTrng::sample_ring(SampledRing& ring,
                                        double t_sample) const {
  ring.bracket = ring.osc.advance_to_block(t_sample, ring.bracket);
  return ring.bracket.fractional_phase(t_sample) < config_.duty_cycle ? 1
                                                                      : 0;
}

std::uint8_t MultiRingTrng::next_bit() {
  const double t_sample = sampling_edges_.next(sampling_, config_.divider);
  std::uint8_t acc = 0;
  for (auto& ring : rings_) acc ^= sample_ring(ring, t_sample);
  return acc;
}

void MultiRingTrng::generate_into(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  // 1. The shared sampling clock is one serial oscillator: take all
  //    sample times from its draw-ahead block before fanning out
  //    (ARCHITECTURE §5 — draw the sequential stream first).
  t_samples_.resize(out.size());
  for (auto& t : t_samples_)
    t = sampling_edges_.next(sampling_, config_.divider);
  // 2. One ring per task: each ring's bit block touches only that ring's
  //    oscillator state, so the fan-out is free of shared mutable state
  //    and the result cannot depend on the thread count.
  blocks_.resize(rings_.size());
  parallel_for(0, rings_.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      auto& block = blocks_[r];
      block.resize(t_samples_.size());
      for (std::size_t i = 0; i < t_samples_.size(); ++i)
        block[i] = sample_ring(rings_[r], t_samples_[i]);
    }
  });
  // 3. XOR-reduce the per-ring blocks in ring order.
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  for (const auto& block : blocks_)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= block[i];
}

MultiRingTrng paper_multi_ring(std::size_t rings, std::uint32_t divider,
                               std::uint64_t seed) {
  auto base = oscillator::paper_single_config(seed);
  MultiRingTrngConfig cfg;
  cfg.rings = rings;
  cfg.divider = divider;
  return {base, cfg};
}

}  // namespace ptrng::trng
