// PSD — Welch / periodogram estimator throughput (ROADMAP bench-coverage
// gap). The estimators run on every calibration and health-monitoring
// path, so their samples/s figure bounds how much raw jitter a deployment
// can audit per second.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "noise/filter_bank.hpp"
#include "stats/psd.hpp"

namespace {

using namespace ptrng;

// 1M samples of white + 1/f noise: representative of the relative-jitter
// series the estimators see in production.
const std::vector<double>& test_signal() {
  static const std::vector<double> signal = [] {
    std::vector<double> x(1 << 20);
    noise::FilterBankFlicker::Config cfg;
    cfg.amplitude = 0.16;  // 1/f meets the unit white level near 0.16 Hz
    cfg.seed = 0x95d;
    noise::FilterBankFlicker flicker(cfg);
    flicker.fill(x);
    GaussianSampler white(0x715);
    for (auto& v : x) v += white();
    return x;
  }();
  return signal;
}

void bm_welch(benchmark::State& state) {
  const auto& x = test_signal();
  const std::size_t segment = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welch(x, 1.0, segment));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(bm_welch)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void bm_periodogram(benchmark::State& state) {
  const auto& x = test_signal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::periodogram(x, 1.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(bm_periodogram)->Unit(benchmark::kMillisecond);

void bm_psd_slope(benchmark::State& state) {
  const auto est = stats::welch(test_signal(), 1.0, 1 << 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::psd_slope(est, 1e-4, 1e-2));
  }
}
BENCHMARK(bm_psd_slope);

}  // namespace

BENCHMARK_MAIN();
