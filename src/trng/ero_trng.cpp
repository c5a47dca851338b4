#include "trng/ero_trng.hpp"

#include "common/contracts.hpp"
#include "oscillator/oscillator_pair.hpp"

namespace ptrng::trng {

EroTrng::EroTrng(const oscillator::RingOscillatorConfig& sampled,
                 const oscillator::RingOscillatorConfig& sampling,
                 const EroTrngConfig& config)
    : sampled_(sampled), sampling_(sampling), config_(config) {
  PTRNG_EXPECTS(config.divider >= 1);
  PTRNG_EXPECTS(config.duty_cycle > 0.0 && config.duty_cycle < 1.0);
  // Prime the sampled oscillator's first edge bracket.
  bracket_.prev = 0.0;
  sampled_.next_period();
  bracket_.next = sampled_.edge_time();
}

std::uint8_t EroTrng::step() {
  // The sampling clock's next divided edge (drawn ahead in exact
  // blocks), then the sampled oscillator's edge bracket brought over the
  // sampling instant (bulk-edge API — jumps far out, steps close in).
  const double t_sample = sampling_edges_.next(sampling_, config_.divider);
  bracket_ = sampled_.advance_to_block(t_sample, bracket_);
  const double frac = bracket_.fractional_phase(t_sample);
  last_frac_ = frac;
  // Square wave: high during the first duty_cycle of each period.
  return frac < config_.duty_cycle ? 1 : 0;
}

std::uint8_t EroTrng::next_bit() { return step(); }

void EroTrng::generate_into(std::span<std::uint8_t> out) {
  for (auto& b : out) b = step();
}

EroTrng paper_trng(std::uint32_t divider, std::uint64_t seed) {
  auto sampled = oscillator::paper_single_config(seed);
  auto sampling = oscillator::paper_single_config(seed ^ 0xabcdef9876ULL);
  // Slight mismatch so the sampling point sweeps the sampled period (as on
  // real FPGAs).
  sampled.mismatch = +1.5e-3;
  sampling.mismatch = -1.5e-3;
  EroTrngConfig cfg;
  cfg.divider = divider;
  return {sampled, sampling, cfg};
}

}  // namespace ptrng::trng
