// FLEETCAMPAIGN — the fleet campaign's cost and its per-shard skew.
// Shards run on the pool's one claim loop at grain 1: a lane that
// finishes a cheap shard claims the next one at once, so uneven shard
// costs balance dynamically. The skew is mild: a modulated attacked eRO
// shard costs about 1.4x an unattacked one (bm_ero_shard: 1.0-1.2 vs
// 0.76-0.84 ms on a 4-vCPU Xeon KVM host), down from about 4.5x before
// the modulated rings jumped on their closed-form clock.
//
// Rows:
//  * bm_fleet_campaign_serial — one-thread end-to-end campaign cost,
//    the gated row;
//  * bm_ero_shard/<attack> — the mean cost of one 2000-bit eRO shard at
//    180nm/tt/f1 under each attack preset, a fresh device per
//    iteration: the per-shard skew the claim loop balances.
//
// The preamble verifies that the campaign report is byte-identical at
// pool width 1 and at the host's width (capped at 8) before any timing
// is trusted.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "model/fleet_campaign.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::model;

CampaignConfig bench_config() {
  CampaignConfig config;
  // First 4 grid cells: ero/180nm/tt/f0 under none/em_weak/em_strong/
  // lock; the two modulated corners are the heavier ones.
  config.corners = 4;
  config.seeds = 4;
  config.bits_per_shard = 2000;
  config.batch_size = 16;  // one batch: every shard in one fan-out
  return config;
}

bool verify_widths_agree(std::size_t wide) {
  auto& pool = ThreadPool::global();
  pool.resize(1);
  const auto serial = run_campaign(bench_config()).json();
  pool.resize(wide);
  const auto parallel = run_campaign(bench_config()).json();
  pool.resize(0);
  return serial == parallel;
}

void bm_fleet_campaign_serial(benchmark::State& state) {
  ThreadPool::global().resize(1);
  auto config = bench_config();
  for (auto _ : state) {
    auto report = run_campaign(config);
    benchmark::DoNotOptimize(report.shards_folded);
  }
  ThreadPool::global().resize(0);
}
BENCHMARK(bm_fleet_campaign_serial)->Unit(benchmark::kMillisecond);

void bm_ero_shard(benchmark::State& state, const char* attack) {
  CampaignConfig config;
  config.bits_per_shard = 2000;
  const CornerSpec spec{"ero", "180nm", "tt", 1.0, attack};
  std::uint64_t seed = 0xe5'0000;
  for (auto _ : state) {
    auto shard = run_shard(spec, ++seed, config);
    benchmark::DoNotOptimize(shard.markov_entropy);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t wide = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 8);
  std::cout << "=== FLEETCAMPAIGN: campaign cost and per-shard skew ===\n"
            << "hardware concurrency " << std::thread::hardware_concurrency()
            << "\n";
  const bool agree = verify_widths_agree(wide);
  std::cout << "report identity (width 1 vs " << wide
            << "): " << (agree ? "OK" : "FAILED") << "\n\n";
  if (!agree) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  for (const char* attack : {"none", "em_weak", "em_strong", "lock"}) {
    const std::string name = "bm_ero_shard/" + std::string(attack);
    benchmark::RegisterBenchmark(name.c_str(), bm_ero_shard, attack)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
