// FLEETCAMPAIGN — the work-stealing scheduler against its fixed-chunk
// ancestor on the fleet campaign's workload shape: shard costs are
// uneven and heavier shards sit CONTIGUOUSLY in shard-index order (the
// attack axis is innermost, so a corner's devices are neighbours).
// Fixed chunking at auto_grain packs several heavy shards into one
// chunk and the fleet waits on it; grain-1 work stealing keeps every
// worker fed. The skew is now mild: a modulated attacked eRO shard
// costs about 1.5x an unattacked one (bm_ero_shard: 1.2-1.4 vs
// 0.8-1.0 ms on a 4-vCPU Xeon KVM host), down from about 4.5x before
// the modulated rings jumped on their closed-form clock. The synthetic
// rows below keep the old 10x skew.
//
// Rows:
//  * bm_fleet_campaign_serial — one-thread end-to-end campaign cost,
//    the gated row (scheduler-independent);
//  * bm_fleet_campaign_{ws,fixed}/W — end-to-end campaign at pool
//    width W under each scheduler;
//  * bm_skewed_shards_{ws,fixed}/W — the synthetic core of the story:
//    identical skewed busy-work, auto_grain fixed chunks vs grain-1
//    stealing. Read the ws speedup at the width matching the machine.
//  * bm_ero_shard/<attack> — the mean cost of one 2000-bit eRO shard at
//    180nm/tt/f1 under each attack preset, a fresh device per
//    iteration: the per-shard skew the scheduler rows are about.
//
// Thread-scaling rows are runtime-registered: on a single-CPU host the
// W >= 2 rows measure oversubscription noise, not scaling, so they get
// the ":informational" suffix bench_diff.py skips. The preamble
// verifies that both schedulers produce byte-identical campaign
// reports before any timing is trusted.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

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
  config.batch_size = 16;  // one batch: pure scheduler comparison
  return config;
}

bool verify_schedulers_agree() {
  auto config = bench_config();
  config.use_work_stealing = true;
  const auto ws = run_campaign(config);
  config.use_work_stealing = false;
  const auto fixed = run_campaign(config);
  return ws.json() == fixed.json();
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

void bm_fleet_campaign_sched(benchmark::State& state, bool ws) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  auto config = bench_config();
  config.use_work_stealing = ws;
  for (auto _ : state) {
    auto report = run_campaign(config);
    benchmark::DoNotOptimize(report.shards_folded);
  }
  ThreadPool::global().resize(0);
}

// Synthetic skewed shards: shard i costs ~10x when its corner is
// "attacked" (3 of every 4 corners, contiguous): the campaign's former
// cost profile, without the simulator's noise floor.
double skewed_work(std::size_t shard) {
  const std::size_t corner = shard / 4;   // 4 "seeds" per corner
  const bool heavy = (corner % 4) != 0;   // 3 of 4 corners attacked
  const std::size_t iters = heavy ? 60'000 : 6'000;
  double acc = 1.0;
  for (std::size_t k = 0; k < iters; ++k)
    acc += 1.0 / static_cast<double>(2 * k + 1);
  return acc;
}

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

constexpr std::size_t kSkewedShards = 512;

void bm_skewed_shards(benchmark::State& state, bool ws) {
  ThreadPool::global().resize(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(kSkewedShards);
  const auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = skewed_work(i);
  };
  for (auto _ : state) {
    if (ws)
      parallel_for_ws(0, kSkewedShards, 1, body);
    else
      parallel_for(0, kSkewedShards, 0, body);  // auto_grain chunks
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSkewedShards));
  ThreadPool::global().resize(0);
}

void register_scaling(const char* base_name, bool single_cpu,
                      void (*fn)(benchmark::State&, bool), bool ws) {
  const std::string name =
      single_cpu ? std::string(base_name) + ":informational" : base_name;
  benchmark::RegisterBenchmark(name.c_str(), fn, ws)
      ->Arg(2)->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->MeasureProcessCPUTime()
      ->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== FLEETCAMPAIGN: work-stealing vs fixed-chunk on skewed "
               "shards ===\n"
            << "hardware concurrency " << std::thread::hardware_concurrency()
            << "\n";
  const bool agree = verify_schedulers_agree();
  std::cout << "scheduler report identity (ws vs fixed-chunk): "
            << (agree ? "OK" : "FAILED") << "\n\n";
  if (!agree) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  const bool single_cpu = std::thread::hardware_concurrency() <= 1;
  register_scaling("bm_fleet_campaign_ws", single_cpu,
                   bm_fleet_campaign_sched, true);
  register_scaling("bm_fleet_campaign_fixed", single_cpu,
                   bm_fleet_campaign_sched, false);
  register_scaling("bm_skewed_shards_ws", single_cpu, bm_skewed_shards,
                   true);
  register_scaling("bm_skewed_shards_fixed", single_cpu, bm_skewed_shards,
                   false);
  for (const char* attack : {"none", "em_weak", "em_strong", "lock"}) {
    const std::string name = "bm_ero_shard/" + std::string(attack);
    benchmark::RegisterBenchmark(name.c_str(), bm_ero_shard, attack)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
