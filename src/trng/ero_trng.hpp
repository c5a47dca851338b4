// The elementary ring-oscillator TRNG of the paper's Fig. 4: a D flip-flop
// samples the square-wave output of Osc1 on (divided) rising edges of
// Osc2. The raw binary sequence b_i is the digitized RRAS; its entropy
// derives from the relative jitter accumulated between samples.
#pragma once

#include <cstdint>

#include "oscillator/ring_oscillator.hpp"
#include "trng/bit_stream.hpp"

namespace ptrng::trng {

/// eRO-TRNG configuration.
struct EroTrngConfig {
  /// Frequency divider on the sampling clock (bit every `divider` Osc2
  /// periods) — K in stochastic models; larger K accumulates more jitter
  /// per bit and raises entropy.
  std::uint32_t divider = 1000;
  /// Duty cycle of the sampled square wave (0.5 = ideal).
  double duty_cycle = 0.5;
};

/// Streaming elementary RO-TRNG built on two simulated rings. A
/// BitSource: compose with transforms through trng::Pipeline. The
/// sampling instants come from a 64-edge draw-ahead block of the
/// sampling clock (oscillator::SamplingEdges) that next_bit() and
/// generate_into() share, so the two stay bit-identical; the batched
/// path is the devirtualized per-bit loop (contrast MultiRingTrng,
/// which fans out across rings).
class EroTrng final : public BitSource {
 public:
  EroTrng(const oscillator::RingOscillatorConfig& sampled,
          const oscillator::RingOscillatorConfig& sampling,
          const EroTrngConfig& config);

  /// Produces the next raw bit: state of the sampled oscillator's square
  /// wave at the next (divided) sampling edge.
  std::uint8_t next_bit() override;

  /// Batched generation on the same stream (bit-identical to repeated
  /// next_bit(); avoids the per-bit virtual dispatch).
  void generate_into(std::span<std::uint8_t> out) override;

  /// Ground truth: fractional phase (in cycles, [0,1)) of the sampled
  /// oscillator at the last sampling instant — the quantity stochastic
  /// models reason about.
  [[nodiscard]] double last_fractional_phase() const noexcept {
    return last_frac_;
  }

  [[nodiscard]] oscillator::RingOscillator& sampled() noexcept {
    return sampled_;
  }
  /// The sampling clock's ring. It runs ahead of the bits: its
  /// edge_time() can be up to 63 edges past the last bit's sampling
  /// instant. A modulation must be set on it before the first bit.
  [[nodiscard]] oscillator::RingOscillator& sampling() noexcept {
    return sampling_;
  }
  [[nodiscard]] const EroTrngConfig& config() const noexcept {
    return config_;
  }

 private:
  std::uint8_t step();  ///< one sample, shared by both entry points

  oscillator::RingOscillator sampled_;
  oscillator::RingOscillator sampling_;
  oscillator::SamplingEdges sampling_edges_;
  EroTrngConfig config_;
  double last_frac_ = 0.0;
  /// Most recent sampled-oscillator edge bracket [t_prev, t_next).
  oscillator::EdgeBracket bracket_;
};

/// The paper-calibrated eRO-TRNG (two 103 MHz rings with the fitted noise
/// split, sampling divided by `divider`).
[[nodiscard]] EroTrng paper_trng(std::uint32_t divider,
                                 std::uint64_t seed = 0x7e57c0de);

}  // namespace ptrng::trng
