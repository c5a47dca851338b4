#include "trng/cell_array.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "phase_noise/conversion.hpp"
#include "phase_noise/isf.hpp"
#include "transistor/inverter.hpp"
#include "transistor/technology.hpp"

namespace ptrng::trng {

CellArrayTrng::Cell::Cell(const oscillator::GateChainConfig& cfg,
                          std::size_t sync_stages)
    : osc(cfg), latch(sync_stages, 0) {
  edge.next = osc.next_period().period;
}

std::uint8_t CellArrayTrng::Cell::sample(double t, double duty) {
  edge = osc.advance_to_block(t, edge);
  const std::uint8_t raw = edge.fractional_phase(t) < duty ? 1 : 0;
  if (latch.empty()) return raw;
  const std::uint8_t out = latch[latch_pos];
  latch[latch_pos] = raw;
  latch_pos = (latch_pos + 1) % latch.size();
  return out;
}

CellArrayTrng::CellArrayTrng(const CellArrayConfig& config)
    : config_(config) {
  PTRNG_EXPECTS(config.cells >= 1);
  PTRNG_EXPECTS(config.base_stages >= 3);
  PTRNG_EXPECTS(config.base_stages % 2 == 1);
  PTRNG_EXPECTS(config.stage_delay > 0.0);
  PTRNG_EXPECTS(config.sigma_stage >= 0.0);
  PTRNG_EXPECTS(config.flicker_amplitude >= 0.0);
  PTRNG_EXPECTS(config.sample_divider >= 1);
  PTRNG_EXPECTS(config.sync_stages <= 64);
  PTRNG_EXPECTS(config.duty_cycle > 0.0 && config.duty_cycle < 1.0);
  PTRNG_EXPECTS(config.decimation >= 4 && config.decimation % 4 == 0);

  ts_ = static_cast<double>(config.sample_divider) * 2.0 *
        static_cast<double>(config.base_stages) * config.stage_delay;

  cells_.reserve(config.cells);
  for (std::size_t i = 0; i < config.cells; ++i) {
    oscillator::GateChainConfig cell_cfg;
    // Odd, distinct inverter counts: base, base+2, base+4, ...
    cell_cfg.n_stages = config.base_stages + 2 * i;
    cell_cfg.stage_delay = config.stage_delay;
    cell_cfg.sigma_stage = config.sigma_stage;
    cell_cfg.flicker_amplitude = config.flicker_amplitude;
    cell_cfg.flicker_floor_hz = config.flicker_floor_hz;
    // Decorrelated per-cell stream, independent of later batching (the
    // same derivation rule as the multi-ring per-ring seeds).
    cell_cfg.seed = chunk_seed(config.seed, i);
    cell_cfg.sampler = config.sampler;
    cells_.emplace_back(cell_cfg, config.sync_stages);
  }

  // Prime the latch shift registers: the first sync_stages sample-clock
  // ticks fill every cell's register, so the first DELIVERED bit is
  // already a real latched sample instead of the registers' reset state.
  for (std::size_t k = 0; k < config.sync_stages; ++k) {
    const double t = static_cast<double>(sample_index_ + 1) * ts_;
    ++sample_index_;
    for (auto& cell : cells_) (void)cell.sample(t, config_.duty_cycle);
  }
}

std::uint8_t CellArrayTrng::next_bit() {
  std::uint8_t bit = 0;
  generate_into({&bit, 1});
  return bit;
}

void CellArrayTrng::generate_into(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  // 1. Sample times are a pure function of the sample counter (the
  //    latch clock is deterministic) — reserve the tick range up front
  //    so mid-block re-entry continues the same time grid.
  const std::uint64_t first = sample_index_;
  sample_index_ += out.size();
  // 2. One cell per task: each cell's bit block touches only that
  //    cell's oscillator/latch state, so the fan-out has no shared
  //    mutable state and cannot depend on PTRNG_THREADS.
  blocks_.resize(cells_.size());
  parallel_for(0, cells_.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      auto& block = blocks_[c];
      block.resize(out.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double t = static_cast<double>(first + i + 1) * ts_;
        block[i] = cells_[c].sample(t, config_.duty_cycle);
      }
    }
  });
  // 3. XOR-combine the latched cell bits in cell order.
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  for (const auto& block : blocks_)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= block[i];
}

void CellArrayTrng::attach_decimation(Pipeline& pipeline) const {
  pipeline.add_transform(std::make_unique<VonNeumannTransform>())
      .add_transform(
          std::make_unique<XorDecimateTransform>(config_.decimation / 4));
}

std::size_t CellArrayTrng::cell_stages(std::size_t i) const {
  PTRNG_EXPECTS(i < cells_.size());
  return cells_[i].osc.config().n_stages;
}

CellArrayConfig cell_array_from_technology(
    const transistor::TechnologyNode& node, std::size_t cells,
    std::size_t base_stages, double fanout, bool with_flicker) {
  const transistor::Inverter inverter(node, fanout);
  const auto conv = phase_noise::convert_ring(
      inverter, base_stages, phase_noise::Isf::ring_typical(base_stages));

  CellArrayConfig cfg;
  cfg.cells = cells;
  cfg.base_stages = base_stages;
  cfg.stage_delay = inverter.propagation_delay();
  // Per-period thermal jitter variance is b_th / f0^3 (the gate-chain
  // equivalence b_th = Var(J_th) * f0^3); the 2N independent stage
  // traversals split it evenly.
  const double period_var = conv.b_th / (conv.f0 * conv.f0 * conv.f0);
  cfg.sigma_stage =
      std::sqrt(period_var / (2.0 * static_cast<double>(base_stages)));
  if (with_flicker) {
    // Low-frequency aggregation rule from the gate-chain model: the
    // period's 1/f jitter PSD amplitude is b_fl / f0^4, and the 2N
    // independent per-stage flicker processes add in PSD, so one
    // stage's delay-flicker amplitude is that split 2N ways.
    cfg.flicker_amplitude = conv.b_fl / (conv.f0 * conv.f0 * conv.f0 *
                                         conv.f0) /
                            (2.0 * static_cast<double>(base_stages));
  }
  return cfg;
}

}  // namespace ptrng::trng
