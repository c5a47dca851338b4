// neoTRNG-style cell-array generator (ROADMAP item 2): a structurally
// different TRNG scenario from the ring-pair family. N free-running
// gate-chain cells with odd, PER-CELL-DISTINCT inverter counts (distinct
// lengths keep the cells from injection-locking to one another) run
// against a deterministic system clock; a latch per cell decouples the
// asynchronous ring from the synchronous domain through a short shift
// register, the latched cell bits are XOR-combined into one raw bit per
// clock, and the published architecture decimates that raw stream ~64x
// through a von-Neumann-style extractor before serving bits.
//
// Mapping onto the repo's stack: each cell is a
// `oscillator::GateChainOscillator` (per-stage thermal + flicker delay
// noise), the generator is a batch-first `trng::BitSource` whose
// parallel path fans one cell per task (multi-ring pattern: the sample
// clock is deterministic, so per-cell blocks are independent), and the
// 64x decimator is composed from the EXISTING BitTransform stack
// (VonNeumannTransform + XorDecimateTransform with carry across blocks)
// via attach_decimation(). Technology scaling reuses
// `transistor::TechnologyNode` -> Inverter -> Hajimiri conversion
// (cell_array_from_technology). docs/ARCHITECTURE.md §8 documents the
// scenario and its determinism rules.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "noise/sampler_policy.hpp"
#include "oscillator/gate_chain.hpp"
#include "trng/bit_stream.hpp"

namespace ptrng::transistor {
struct TechnologyNode;  // technology.hpp
}

namespace ptrng::trng {

/// Cell-array generator configuration. Cell i runs base_stages + 2*i
/// inverters (all odd, all distinct), so no two cells share a nominal
/// frequency.
struct CellArrayConfig {
  std::size_t cells = 3;          ///< XOR-combined cells (N >= 1)
  std::size_t base_stages = 5;    ///< inverters in cell 0 (odd, >= 3)
  double stage_delay = 970e-12 / 10.0;  ///< nominal per-stage delay [s]
  double sigma_stage = 5e-12;     ///< thermal stddev per stage delay [s]
  /// Per-stage delay flicker amplitude (GateChainConfig semantics);
  /// 0 disables the flicker banks.
  double flicker_amplitude = 0.0;
  double flicker_floor_hz = 100.0;
  /// Sample (latch) clock period in nominal cell-0 periods: T_s =
  /// sample_divider * 2 * base_stages * stage_delay. Larger values
  /// accumulate more jitter per sample, like the eRO divider K.
  std::uint32_t sample_divider = 64;
  /// Depth of the per-cell latch shift register decoupling the async
  /// ring from the sample clock (0 = sample directly, no latch delay).
  std::size_t sync_stages = 2;
  double duty_cycle = 0.5;        ///< duty of the sampled square wave
  /// Nominal output decimation of the published architecture; realized
  /// as VonNeumann (nominal 4x) + XorDecimate(decimation / 4), so it
  /// must be a multiple of 4.
  std::size_t decimation = 64;
  std::uint64_t seed = 0xce11a44aULL;
  /// Sampler policy threaded into every cell (ARCHITECTURE §5).
  noise::SamplerPolicy sampler{};
};

/// The cell-array BitSource. Raw stream = XOR of the latched cell bits,
/// one bit per sample-clock tick. `generate_into` is the batched path:
/// sample times are a pure function of the sample counter (the clock is
/// deterministic), so each cell's bit block is an independent task and
/// the output is bit-identical for any PTRNG_THREADS, any mid-block
/// split, and identical to repeated next_bit() calls.
class CellArrayTrng final : public BitSource {
 public:
  explicit CellArrayTrng(const CellArrayConfig& config);

  std::uint8_t next_bit() override;
  void generate_into(std::span<std::uint8_t> out) override;

  /// Appends the architecture's decimation chain (von Neumann followed
  /// by parity over decimation/4 groups) to `pipeline`. The nominal
  /// output rate is raw_rate / decimation (von Neumann keeps half of
  /// the pairs on balanced input).
  void attach_decimation(Pipeline& pipeline) const;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }
  /// Inverter count of cell i (odd, distinct across cells).
  [[nodiscard]] std::size_t cell_stages(std::size_t i) const;
  /// Sample-clock period T_s [s].
  [[nodiscard]] double sample_period() const noexcept { return ts_; }
  /// Sample-clock ticks consumed so far (including latch priming).
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return sample_index_;
  }
  [[nodiscard]] const CellArrayConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One free-running cell plus its sampling state. Each latch tick
  /// lands the cell's edges around the tick with
  /// GateChainOscillator::advance_to_block: one jitter-sized jump, then
  /// about one next_period() step. The edges and the latch shift
  /// register are all the state a tick carries, so a cell advanced
  /// sample by sample and a cell advanced in one batch realize the same
  /// stream.
  struct Cell {
    oscillator::GateChainOscillator osc;
    oscillator::EdgeBracket edge;  ///< edges around the latest tick
    std::vector<std::uint8_t> latch;  ///< shift register (may be empty)
    std::size_t latch_pos = 0;

    Cell(const oscillator::GateChainConfig& cfg, std::size_t sync_stages);
    std::uint8_t sample(double t, double duty);
  };

  CellArrayConfig config_;
  double ts_;
  std::vector<Cell> cells_;
  std::uint64_t sample_index_ = 0;
  std::vector<std::vector<std::uint8_t>> blocks_;  ///< per-cell scratch
};

/// Technology-scaled cell-array configuration: per-stage delay from the
/// node's inverter propagation delay, per-stage thermal sigma (and, when
/// `with_flicker`, the per-stage delay-flicker amplitude) from the
/// Hajimiri conversion of the node's current noise, aggregated back to
/// one stage by the gate-chain rules (thermal variances add across the
/// 2N stage traversals; flicker PSDs add across stages).
[[nodiscard]] CellArrayConfig cell_array_from_technology(
    const transistor::TechnologyNode& node, std::size_t cells = 3,
    std::size_t base_stages = 5, double fanout = 1.0,
    bool with_flicker = false);

}  // namespace ptrng::trng
