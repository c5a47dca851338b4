// RNG — Gaussian sampler engine ablation: Marsaglia polar (the pre-PR-5
// engine) vs the 256-layer ziggurat (the default since PR 5), scalar and
// batched, plus pool-parallel fill over independent chunk_seed streams.
// The PR-5 acceptance gate reads the 1-core comparison off the
// bm_gaussian_fill rows: ziggurat fill() must be >= 2x faster than polar
// fill() (the ziggurat replaces the polar loop's per-draw log/sqrt with
// one table lookup on ~98.8% of draws).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/ziggurat.hpp"

namespace {

using namespace ptrng;

constexpr std::size_t kBlockSamples = 1u << 20;

// Bit-identity preamble (bench_multi_ring conventions): fill() must
// reproduce the scalar stream exactly for BOTH engines, and the
// standalone ZigguratNormal must match the sampler's dispatch, before
// any timing here is trusted.
bool verify_determinism() {
  for (auto method : {GaussianSampler::Method::Ziggurat,
                      GaussianSampler::Method::Polar}) {
    GaussianSampler stepped(0xbe9c, method), batched(0xbe9c, method);
    std::vector<double> expected(10001);
    for (auto& x : expected) x = stepped();
    std::vector<double> got(expected.size());
    batched.fill(std::span<double>(got).subspan(0, 777));
    batched.fill(std::span<double>(got).subspan(777));
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i] != expected[i]) return false;
    if (batched() != stepped()) return false;
  }
  ZigguratNormal zig(0xbe9c);
  GaussianSampler dispatch(0xbe9c);
  for (int i = 0; i < 1000; ++i)
    if (zig() != dispatch()) return false;
  return true;
}

void bm_gaussian_scalar(benchmark::State& state,
                        GaussianSampler::Method method) {
  GaussianSampler g(0x9a55, method);
  for (auto _ : state) benchmark::DoNotOptimize(g());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(bm_gaussian_scalar, polar,
                  GaussianSampler::Method::Polar);
BENCHMARK_CAPTURE(bm_gaussian_scalar, ziggurat,
                  GaussianSampler::Method::Ziggurat);

// One 1M-sample block per iteration through the single-stream fill()
// fast path — the pair the >= 2x acceptance gate compares.
void bm_gaussian_fill(benchmark::State& state,
                      GaussianSampler::Method method) {
  GaussianSampler g(0x9a55, method);
  std::vector<double> block(kBlockSamples);
  for (auto _ : state) {
    g.fill(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK_CAPTURE(bm_gaussian_fill, polar, GaussianSampler::Method::Polar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_gaussian_fill, ziggurat,
                  GaussianSampler::Method::Ziggurat)
    ->Unit(benchmark::kMillisecond);

// The lane kernel at the shape of a flicker bank's draw-ahead refill:
// `Streams` Ziggurat samplers advance in lockstep for 64 draws each,
// landing in interleaved 4-stream packs (GaussianSampler::fill_packs,
// ZigguratNormal::fill_packs). 4 streams is one pack on the 4-lane
// kernel; 20, the paper bank's packed stages, is two 8-lane pairs (on
// an AVX-512 host) and one 4-lane pack.
template <std::size_t Streams>
void bm_gaussian_packs(benchmark::State& state) {
  constexpr std::size_t kLaneDraws = 64;
  std::vector<GaussianSampler> lanes;
  for (std::size_t l = 0; l < Streams; ++l)
    lanes.emplace_back(chunk_seed(0x9a55, l));
  std::vector<double> block(Streams * kLaneDraws);
  for (auto _ : state) {
    GaussianSampler::fill_packs(lanes, block);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
void bm_gaussian_fill_lanes(benchmark::State& state) {
  bm_gaussian_packs<4>(state);
}
BENCHMARK(bm_gaussian_fill_lanes);
void bm_gaussian_fill_packs(benchmark::State& state) {
  bm_gaussian_packs<20>(state);
}
BENCHMARK(bm_gaussian_fill_packs);

// Pool-parallel fill: 8 fixed, independent chunk_seed streams each fill
// 1/8 of the block one-per-task (§5 batched-noise rules), so the output
// is identical for any pool width; Arg is the pool width. On the 1-core
// CI container the speedup only shows on multi-core hosts (à la
// bench_multi_ring).
void bm_gaussian_fill_threads(benchmark::State& state,
                              GaussianSampler::Method method) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kChunk = kBlockSamples / kTasks;
  std::vector<GaussianSampler> streams;
  streams.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t)
    streams.emplace_back(chunk_seed(0x9a55, t), method);
  std::vector<double> block(kBlockSamples);
  for (auto _ : state) {
    parallel_for(0, kTasks, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t)
        streams[t].fill(std::span<double>(block).subspan(t * kChunk, kChunk));
    });
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
  ThreadPool::global().resize(0);
}
BENCHMARK_CAPTURE(bm_gaussian_fill_threads, polar,
                  GaussianSampler::Method::Polar)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK_CAPTURE(bm_gaussian_fill_threads, ziggurat,
                  GaussianSampler::Method::Ziggurat)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const bool deterministic = verify_determinism();
  std::cout << "sampler determinism (fill vs scalar, both engines; "
               "ZigguratNormal vs GaussianSampler dispatch): "
            << (deterministic ? "OK" : "FAILED") << "\n\n";
  if (!deterministic) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
