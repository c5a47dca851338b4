// PARSWEEP — thread scaling of the parallel execution core on the
// paper's headline computation: the sigma^2_N sweep over a 4M-sample
// relative-jitter series (Fig. 7 input). The Arg is the pool width;
// compare the 1-thread row against 2/4/8 to read the speedup. The
// preamble verifies the bit-identity guarantee (PTRNG_THREADS=1 vs =8
// outputs) before any timing is trusted.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "oscillator/oscillator_pair.hpp"

namespace {

using namespace ptrng;

constexpr std::size_t kSamples = 4'000'000;

const std::vector<double>& jitter_series() {
  static const std::vector<double> jitter =
      oscillator::paper_pair(0x9a2a11e1, 0.0).relative_jitter(kSamples);
  return jitter;
}

const std::vector<std::size_t>& sweep_grid() {
  static const std::vector<std::size_t> grid = log_integer_grid(10, 40'000, 25);
  return grid;
}

bool verify_determinism() {
  ThreadPool::global().resize(1);
  const auto one = measurement::sigma2_n_sweep(jitter_series(), sweep_grid());
  ThreadPool::global().resize(8);
  const auto eight = measurement::sigma2_n_sweep(jitter_series(), sweep_grid());
  ThreadPool::global().resize(0);
  if (one.size() != eight.size()) return false;
  for (std::size_t i = 0; i < one.size(); ++i) {
    if (one[i].sigma2 != eight[i].sigma2 || one[i].ci_lo != eight[i].ci_lo ||
        one[i].ci_hi != eight[i].ci_hi || one[i].samples != eight[i].samples)
      return false;
  }
  return true;
}

void bm_sweep_threads(benchmark::State& state) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  const auto& jitter = jitter_series();
  const auto& grid = sweep_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(measurement::sigma2_n_sweep(jitter, grid));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jitter.size()));
  ThreadPool::global().resize(0);
}
BENCHMARK(bm_sweep_threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== PARSWEEP: thread scaling of the sigma^2_N sweep ===\n"
            << "series: " << kSamples << " samples, grid "
            << sweep_grid().size() << " points, hardware concurrency "
            << configured_thread_count() << "\n";
  const bool deterministic = verify_determinism();
  std::cout << "determinism (1 vs 8 threads bit-identical): "
            << (deterministic ? "OK" : "FAILED") << "\n\n";
  if (!deterministic) return 1;  // fail bench-smoke, timings are untrustworthy
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
