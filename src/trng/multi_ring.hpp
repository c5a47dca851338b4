// Multi-ring TRNG in the style of Sunar, Martin & Stinson (paper ref [7]):
// R independent rings are sampled simultaneously and XORed into one raw
// bit. Entropy adds across rings (bias multiplies by the piling-up
// lemma), buying entropy rate at the cost of area — the classic
// alternative to slowing the sampling divider down.
//
// Included as a referenced-baseline architecture: the paper's critique
// (flicker noise correlates successive samples of EACH ring) applies to
// the multi-ring design too, since XOR cannot remove common per-ring
// autocorrelation — only bias.
#pragma once

#include <cstdint>
#include <vector>

#include "oscillator/ring_oscillator.hpp"
#include "trng/bit_stream.hpp"

namespace ptrng::trng {

/// Configuration of the Sunar-style generator.
struct MultiRingTrngConfig {
  std::size_t rings = 8;          ///< sampled rings (R)
  std::uint32_t divider = 1000;   ///< sampling divider on the common clock
  double duty_cycle = 0.5;
  /// Relative frequency spread across rings (deterministic fan;
  /// placement/routing makes real rings differ by ~1%).
  double frequency_spread = 1e-2;
};

/// R sampled rings + one sampling ring, XOR combiner. A BitSource with a
/// genuinely parallel batched path: generate_into() computes each ring's
/// sampled-bit block as an independent task on the common thread pool
/// (one ring per chunk) and XOR-reduces the blocks in ring order. Each
/// ring's bit block depends only on that ring's own oscillator state and
/// the shared sample-time vector (read before the fan-out from the
/// sampling clock's 64-edge draw-ahead block, which next_bit() reads
/// too — the ARCHITECTURE §5 rule), so the output is bit-identical for
/// any PTRNG_THREADS — and identical to repeated next_bit() calls.
class MultiRingTrng final : public BitSource {
 public:
  /// `base` is the per-ring noise/frequency template; ring i gets a
  /// deterministic frequency offset and an independent
  /// chunk_seed(base.seed, i)-derived seed.
  MultiRingTrng(const oscillator::RingOscillatorConfig& base,
                const MultiRingTrngConfig& config);

  /// Next raw bit: XOR of the R sampled ring states at the sampling edge.
  std::uint8_t next_bit() override;

  /// Batched fast path, parallel across rings (see class comment).
  void generate_into(std::span<std::uint8_t> out) override;

  [[nodiscard]] std::size_t ring_count() const noexcept {
    return rings_.size();
  }
  [[nodiscard]] const MultiRingTrngConfig& config() const noexcept {
    return config_;
  }

 private:
  struct SampledRing {
    oscillator::RingOscillator osc;
    oscillator::EdgeBracket bracket;
    explicit SampledRing(const oscillator::RingOscillatorConfig& cfg)
        : osc(cfg) {}
  };

  std::uint8_t sample_ring(SampledRing& ring, double t_sample) const;

  MultiRingTrngConfig config_;
  std::vector<SampledRing> rings_;
  oscillator::RingOscillator sampling_;
  oscillator::SamplingEdges sampling_edges_;
  std::vector<double> t_samples_;                   ///< batch scratch
  std::vector<std::vector<std::uint8_t>> blocks_;   ///< per-ring scratch
};

/// Paper-calibrated multi-ring generator.
[[nodiscard]] MultiRingTrng paper_multi_ring(std::size_t rings,
                                             std::uint32_t divider,
                                             std::uint64_t seed = 0x5177a4);

}  // namespace ptrng::trng
