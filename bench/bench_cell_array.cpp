// CELLARRAY — throughput of the neoTRNG-style cell-array generator:
// the raw batched path (one cell per task, thread-scaled like
// bench_multi_ring) and the full decimated pipeline (von Neumann +
// parity), plus the cost of scaling the cell count. The preamble
// verifies the bit-identity guarantees (1 vs 8 threads, batch vs
// per-bit) before any timing is trusted — matching the
// bench_parallel_sweep conventions. One more row times the campaign's
// technology-derived 90 nm thermal-only corner at its divider 64, where
// each latch tick is one jitter-sized jump per cell.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "transistor/technology.hpp"
#include "trng/cell_array.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::trng;

constexpr std::uint64_t kSeed = 0xce11a44a;

/// Jittery fast-clock configuration (the test suite's profile): cheap
/// raw ticks, realistic decimated output.
CellArrayConfig bench_config(std::size_t cells = 3) {
  CellArrayConfig cfg;
  cfg.cells = cells;
  cfg.base_stages = 5;
  cfg.stage_delay = 100e-12;
  cfg.sigma_stage = 30e-12;
  cfg.sample_divider = 8;
  cfg.decimation = 16;
  cfg.seed = kSeed;
  return cfg;
}

/// The campaign's cell_array/90nm/tt/f0 corner: technology-derived
/// thermal-only cells at the default divider 64.
CellArrayConfig campaign_corner_config() {
  CellArrayConfig cfg = cell_array_from_technology(
      transistor::technology_node("90nm"), 3, 5, 1.0, false);
  cfg.seed = kSeed;
  return cfg;
}

bool verify_determinism(const CellArrayConfig& cfg) {
  std::vector<std::uint8_t> one(32'000), eight(one.size());
  ThreadPool::global().resize(1);
  {
    CellArrayTrng gen(cfg);
    gen.generate_into(one);
  }
  ThreadPool::global().resize(8);
  {
    CellArrayTrng gen(cfg);
    gen.generate_into(eight);
  }
  ThreadPool::global().resize(0);
  if (one != eight) return false;
  // Batch path == per-bit path on the same stream.
  CellArrayTrng batched(cfg), stepped(cfg);
  std::vector<std::uint8_t> block(8'000);
  batched.generate_into(block);
  for (const auto b : block)
    if (b != stepped.next_bit()) return false;
  return true;
}

void bm_cell_array_raw_threads(benchmark::State& state) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  CellArrayTrng gen(bench_config());
  std::vector<std::uint8_t> block(1u << 16);
  for (auto _ : state) {
    gen.generate_into(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
  ThreadPool::global().resize(0);
}
BENCHMARK(bm_cell_array_raw_threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void bm_cell_array_decimated(benchmark::State& state) {
  // Full published architecture: raw XOR stream through the 16x
  // von-Neumann + parity chain; items = DELIVERED (decimated) bits.
  CellArrayTrng gen(bench_config());
  Pipeline pipeline(gen, /*block_bits=*/4096);
  gen.attach_decimation(pipeline);
  std::vector<std::uint8_t> block(4096);
  for (auto _ : state) {
    pipeline.generate_into(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(bm_cell_array_decimated)->Unit(benchmark::kMillisecond);

void bm_cell_array_cell_count(benchmark::State& state) {
  // Area-vs-rate: raw cost is ~linear in the cell count on one thread.
  CellArrayTrng gen(bench_config(static_cast<std::size_t>(state.range(0))));
  std::vector<std::uint8_t> block(1u << 14);
  for (auto _ : state) {
    gen.generate_into(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(bm_cell_array_cell_count)
    ->Arg(1)->Arg(3)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void bm_cell_array_campaign_corner(benchmark::State& state) {
  // One campaign shard's worth of raw bits per iteration.
  CellArrayTrng gen(campaign_corner_config());
  std::vector<std::uint8_t> block(2000);
  for (auto _ : state) {
    gen.generate_into(block);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(bm_cell_array_campaign_corner)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== CELLARRAY: neoTRNG-style cell-array throughput ===\n"
            << "cells 3, base stages 5, divider 8, decimation 16, hardware "
               "concurrency "
            << configured_thread_count() << "\n"
            << "campaign corner row: 90nm thermal-only cells, divider 64\n";
  const bool deterministic = verify_determinism(bench_config()) &&
                             verify_determinism(campaign_corner_config());
  std::cout << "determinism (1 vs 8 threads, batch vs next_bit): "
            << (deterministic ? "OK" : "FAILED") << "\n\n";
  if (!deterministic) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
