// RBGSERVICE — end-to-end byte service under concurrent load: N client
// threads each fill 4 KiB buffers from their own RandomByteService
// stream while the producer keeps the conditioned-block ring fed. The
// Arg is the client count (1/8/64/512); each iteration spawns the
// clients, runs a fixed number of fills per client, and is manually
// timed, so bytes/s reads the aggregate service rate and the p50/p99
// counters read the per-fill latency tail under that load (512 clients
// deliberately oversubscribes the cores). The preamble verifies the
// service determinism guarantee — per-consumer bytes are a pure
// function of (source seed, consumer id), independent of pool width —
// before any timing is trusted, matching the bench_multi_ring
// conventions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trng/bit_stream.hpp"
#include "trng/continuous_health.hpp"
#include "trng/rbg_service.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::trng;

constexpr std::uint64_t kSourceSeed = 0x90b5e7;
constexpr std::size_t kFillBytes = 4096;  // one request per fill
constexpr int kFillsPerClient = 4;        // per timed iteration

/// Ideal iid source: the bench measures the service layer (SHA-256
/// conditioning + DRBG + ring), not oscillator physics.
class XoshiroBitSource final : public BitSource {
 public:
  explicit XoshiroBitSource(std::uint64_t seed) : rng_(seed) {}
  std::uint8_t next_bit() override {
    return static_cast<std::uint8_t>(rng_.next() & 1u);
  }

 private:
  Xoshiro256pp rng_;
};

RbgServiceConfig bench_config() {
  RbgServiceConfig cfg;
  cfg.conditioner.h_min = 0.5;
  cfg.drbg.reseed_interval = 64;  // periodic ring reseeds under load
  cfg.wait_budget = std::chrono::milliseconds(10'000);
  return cfg;
}

bool verify_determinism() {
  // Per-consumer bytes must not depend on the pool width or on how
  // often the producer ran; distinct consumer ids must differ.
  std::vector<std::byte> narrow(kFillBytes), wide(kFillBytes),
      other(kFillBytes);
  for (const std::size_t width : {1u, 4u}) {
    ThreadPool::global().resize(width);
    XoshiroBitSource source(kSourceSeed);
    HealthEngine engine{ContinuousHealthConfig{}};
    RbgServiceConfig cfg = bench_config();
    cfg.drbg.reseed_interval = 1ull << 40;  // pure function of the seed
    RandomByteService service(source, engine, cfg);
    service.start();
    auto stream = service.open_stream(1);
    auto& out = width == 1 ? narrow : wide;
    if (stream.fill(out) != RandomByteService::FillStatus::kOk) return false;
    if (width == 4) {
      auto stream2 = service.open_stream(2);
      if (stream2.fill(other) != RandomByteService::FillStatus::kOk)
        return false;
    }
    service.stop();
  }
  ThreadPool::global().resize(0);
  return narrow == wide && narrow != other;
}

void bm_rbg_service_clients(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  XoshiroBitSource source(kSourceSeed);
  HealthEngine engine{ContinuousHealthConfig{}};
  RandomByteService service(source, engine, bench_config());
  service.start();

  std::mutex latency_mutex;
  std::vector<double> latencies_us;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &latency_mutex, &latencies_us, c] {
        auto stream = service.open_stream(c + 1);
        std::vector<std::byte> buf(kFillBytes);
        std::vector<double> local;
        local.reserve(kFillsPerClient);
        for (int i = 0; i < kFillsPerClient; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          if (stream.fill(buf) != RandomByteService::FillStatus::kOk)
            std::abort();  // timings would be meaningless
          const auto t1 = std::chrono::steady_clock::now();
          local.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          benchmark::DoNotOptimize(buf.data());
        }
        const std::lock_guard<std::mutex> lock(latency_mutex);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    const auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - begin).count());
  }

  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(clients) *
                          kFillsPerClient * kFillBytes);
  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    const auto at = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(latencies_us.size() - 1));
      return latencies_us[idx];
    };
    state.counters["fill_p50_us"] = at(0.50);
    state.counters["fill_p99_us"] = at(0.99);
  }
  state.counters["blocks_produced"] =
      static_cast<double>(service.blocks_produced());
  service.stop();
}
BENCHMARK(bm_rbg_service_clients)
    ->Arg(1)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

void bm_hash_drbg_generate(benchmark::State& state) {
  // Single-stream DRBG expansion baseline: the per-core ceiling every
  // client shares. Hashgen is one SHA-256 compression per 32 bytes (V's
  // 55 bytes, the 0x80 pad and the 8-byte length fill one block), and
  // rounds 0..12 of it are shared by every output of a request.
  HashDrbgConfig cfg;
  cfg.reseed_interval = 1ull << 40;
  HashDrbg drbg(cfg);
  std::vector<std::byte> seed(32, std::byte{0x42});
  drbg.instantiate(seed, {});
  std::vector<std::byte> out(kFillBytes);
  for (auto _ : state) {
    if (drbg.generate(out) != HashDrbg::Status::kOk) std::abort();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(bm_hash_drbg_generate);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== RBGSERVICE: concurrent byte service (conditioning + "
               "Hash-DRBG + SPMC ring) ===\n"
            << "fill " << kFillBytes << " B, " << kFillsPerClient
            << " fills/client/iteration, hardware concurrency "
            << configured_thread_count() << "\n";
  const bool deterministic = verify_determinism();
  std::cout << "determinism (pool width 1 vs 4, consumer isolation): "
            << (deterministic ? "OK" : "FAILED") << "\n\n";
  if (!deterministic) return 1;  // fail bench-smoke, timings untrustworthy
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
