// EQ12 — characterizes the hardware estimator of Fig. 6 / Eq. 12 against
// the oracle jitter-sum estimator (Eq. 4): the counter only sees integer
// counts, so it carries a +-1-count quantization floor ~0.5/f0^2 that
// dominates at small N (a limitation the paper does not discuss; see
// docs/ARCHITECTURE.md §3). The bench maps the N range where Eq. 12 tracks
// theory and the effect of the inter-ring frequency mismatch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <utility>
#include <vector>

#include "common/math_utils.hpp"
#include "common/table.hpp"
#include "measurement/counter.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::oscillator;

// Seeds per N of the counter column: one seed's counter/theory ratio
// spreads by about 0.2 at N = 1e5 (60 windows), so the column reports the
// mean over kCounterSeeds fresh ring pairs and its standard error.
constexpr std::uint64_t kCounterSeeds = 24;

void print_comparison() {
  std::cout << "=== EQ12: counter estimator vs oracle (Fig. 6 circuit) ===\n"
            << "quantization floor f0^2*s2 ~ 0.5 expected at small N; "
            << "counter columns: mean over " << kCounterSeeds
            << " seeds\n\n";
  const phase_noise::PhasePsd psd(paper::b_th, paper::b_fl, paper::f0);
  const double f02 = paper::f0 * paper::f0;

  TableWriter table({"N", "f0^2*s2 (counter)", "f0^2*s2 (oracle)",
                     "f0^2*s2 (Eq.11)", "counter/theory", "+- se"});
  for (std::size_t n : {100u, 1000u, 10000u, 30000u, 100000u}) {
    const double theory = psd.sigma2_n(static_cast<double>(n));

    // Counter path: fresh oscillators per N and seed keep windows
    // independent.
    stats::RunningStats ratio;
    const std::size_t windows = std::max<std::size_t>(60, 4'000'000 / n);
    for (std::uint64_t seed = 0; seed < kCounterSeeds; ++seed) {
      auto c1 = paper_single_config(0xc0 + n + (seed << 20));
      auto c2 = paper_single_config(0xd0 + n + (seed << 20));
      c1.mismatch = +1.5e-3;
      c2.mismatch = -1.5e-3;
      RingOscillator osc1(c1), osc2(c2);
      measurement::DifferentialCounter counter(osc1, osc2);
      ratio.add(counter.sigma2_n(n, windows) / theory);
    }
    const double se =
        ratio.stddev() / std::sqrt(static_cast<double>(kCounterSeeds));

    // Oracle path.
    auto pair = paper_pair(0xe0 + n, 0.0);
    const auto jitter =
        pair.relative_jitter(std::min<std::size_t>(6'000'000, n * 400));
    const std::vector<std::size_t> grid{n};
    const auto sweep = measurement::sigma2_n_sweep(jitter, grid);
    const double s2_oracle = sweep.empty() ? 0.0 : sweep[0].sigma2;

    table.add_row({cell(n), cell_sci(ratio.mean() * theory * f02),
                   cell_sci(s2_oracle * f02), cell_sci(theory * f02),
                   cell(ratio.mean(), 3), cell(se, 3)});
  }
  table.print(std::cout);
  std::cout << "\nreading: counter/theory >> 1 at small N (quantization "
               "floor); over the seeds it is still\n~1.6 at N = 3e4, "
               "where the +-1-count floor is half of Eq. 11, and ~1.1 at "
               "N = 1e5.\nThe oracle estimator has no floor.\n\n";
}

// Count preamble: on fresh rings every osc1 edge after the first is
// counted in some window except the bracket's upper edge past the last
// window end (sum(counts) + 1 == cycle_count), across re-entry at a new
// window length, and a run split over several calls counts exactly what
// one call does.
bool verify_counter_counts() {
  auto counts_run = [](std::size_t splits) {
    auto c1 = paper_single_config(0xa1);
    auto c2 = paper_single_config(0xa2);
    c1.mismatch = 1.5e-3;
    RingOscillator osc1(c1), osc2(c2);
    measurement::DifferentialCounter counter(osc1, osc2);
    std::vector<std::int64_t> counts;
    for (std::size_t s = 0; s < splits; ++s) {
      const auto part = counter.count_windows(1000, 96 / splits);
      counts.insert(counts.end(), part.begin(), part.end());
    }
    const auto more = counter.count_windows(500, 61);  // re-entry, new N
    counts.insert(counts.end(), more.begin(), more.end());
    const auto total =
        std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
    const bool conserved =
        static_cast<std::uint64_t>(total) + 1 == osc1.cycle_count();
    return std::pair{counts, conserved};
  };
  const auto [whole_counts, whole_ok] = counts_run(1);
  const auto [split_counts, split_ok] = counts_run(3);
  return whole_ok && split_ok && whole_counts == split_counts;
}

void bm_counter_window(benchmark::State& state) {
  auto c1 = paper_single_config(1);
  auto c2 = paper_single_config(2);
  c1.mismatch = 1.5e-3;
  RingOscillator osc1(c1), osc2(c2);
  measurement::DifferentialCounter counter(osc1, osc2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.count_windows(1000, 10));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(bm_counter_window)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool counts_ok = verify_counter_counts();
  std::cout << "counter counts (exact count conservation, split-run "
               "identity): "
            << (counts_ok ? "OK" : "FAILED") << "\n\n";
  if (!counts_ok) return 1;  // fail bench-smoke, timings untrustworthy
  print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
