#include "serve.hpp"

#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "raw.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using FillStatus = trng::RandomByteService::FillStatus;

constexpr int kTracedStarts = 3;
constexpr std::uint64_t kSourceRole = 3;
constexpr std::uint64_t kDrbgRole = 4;
constexpr std::uint64_t kStreamId = 1;
constexpr std::uint64_t kOtherStreamId = 2;
constexpr double kRingFillLimitSeconds = 30.0;
// The consumer plus the service's producer.
constexpr int kServeThreads = 2;

const char* const kFillCheck = "serve: every fill returns kOk";

/// First 64 KiB of stream `id` on a fresh, started twin service.
std::vector<std::byte> first_fill(Result& result, ServeRig& rig,
                                  std::uint64_t id) {
  auto stream = rig.service.open_stream(id);
  std::vector<std::byte> out(kFillBytes);
  const FillStatus status = stream.fill(out);
  if (status != FillStatus::kOk)
    result.check("serve: twin fill returns kOk", false,
                 "stream " + std::to_string(id));
  return out;
}

struct Twins {
  std::vector<std::byte> same_id;
  std::vector<std::byte> other_id;
};

Twins twin_fills(Result& result, std::uint64_t seed) {
  ServeRig twin(seed);
  twin.service.start();
  Twins t;
  t.same_id = first_fill(result, twin, kStreamId);
  t.other_id = first_fill(result, twin, kOtherStreamId);
  twin.service.stop();
  return t;
}

/// Service counters summed over the slices of a run.
struct ServeCounts {
  std::uint64_t bytes_served = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t blocks_produced = 0;
  std::uint64_t blocks_discarded = 0;
  std::uint64_t produced0 = 0;
  std::uint64_t discarded0 = 0;

  /// Marks the service's block counters at the start of measured fills.
  void begin(const ServeRig& rig) {
    produced0 = rig.service.blocks_produced();
    discarded0 = rig.service.blocks_discarded();
  }
};

/// Adds the slice's counters, then closes the stream and stops the
/// service (outside any timing).
void retire(ServeCounts& counts, ServeRig& rig,
            std::optional<trng::RandomByteService::Stream>& stream) {
  counts.bytes_served += stream->bytes_served();
  counts.reseeds += stream->reseeds();
  counts.blocks_produced += rig.service.blocks_produced() - counts.produced0;
  counts.blocks_discarded +=
      rig.service.blocks_discarded() - counts.discarded0;
  stream.reset();
  rig.service.stop();
}

}  // namespace

ServeRig::ServeRig(std::uint64_t seed)
    : source(trng::paper_trng(kRawDivider, seed)),
      health(trng::ContinuousHealthConfig{}),
      service(source, health, trng::RbgServiceConfig{}) {}

bool ServeRig::start_and_fill() {
  service.start();
  const std::size_t full = std::bit_ceil(service.config().ring_capacity);
  const std::int64_t limit =
      now_ns() + static_cast<std::int64_t>(kRingFillLimitSeconds * 1e9);
  while (service.ring_size_approx() < full) {
    if (now_ns() > limit) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void record_fill(Result& result, FillStatus status) {
  result.record_op(status == FillStatus::kOk, kFillCheck);
}

void check_ring_filled(Result& result, bool filled) {
  result.check("serve: ring reaches capacity during set-up", filled);
}

void check_stream_twins(Result& result, std::span<const std::byte> first,
                        std::span<const std::byte> twin_same_id,
                        std::span<const std::byte> twin_other_id) {
  const auto equal = [](std::span<const std::byte> a,
                        std::span<const std::byte> b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  result.check("serve: same (seed, id) on a fresh twin gives identical bytes",
               !first.empty() && equal(first, twin_same_id));
  result.check("serve: a different id gives different bytes",
               !first.empty() && !equal(first, twin_other_id));
}

void serve_end_to_end(const RunOptions& options, Result& result) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kSourceRole);
  const Twins twins = twin_fills(result, seed);

  // Each slice sets up a fresh service on the same seed (construction,
  // start() and the wait until the ring holds its full capacity, timed)
  // and measures fills on one stream of it.
  std::vector<Timed> setups;
  std::unique_ptr<ServeRig> rig;
  std::optional<trng::RandomByteService::Stream> stream;
  std::vector<std::byte> buf(kFillBytes);
  std::vector<std::byte> first;
  ServeCounts counts;
  bool filled = true;
  Loop loop;
  for (int slice = 0; slice < kSetupRepetitions; ++slice) {
    if (rig) retire(counts, *rig, stream);
    setups.push_back(time_normalized([&] {
      rig = std::make_unique<ServeRig>(seed);
      filled = rig->start_and_fill() && filled;
      stream.emplace(rig->service.open_stream(kStreamId));
    }));
    counts.begin(*rig);
    run_slice(result, loop, options.seconds / kSetupRepetitions,
              kMinSliceOps, [&](std::size_t i) {
                record_fill(result, stream->fill(buf));
                if (i == 0) first = buf;
              });
  }
  retire(counts, *rig, stream);
  check_ring_filled(result, filled);
  check_stream_twins(result, first, twins.same_id, twins.other_id);
  check_threads(result, loop.max_threads, kServeThreads);
  end_to_end_metrics(result, loop, setups);
  result.count("serve.fills", static_cast<double>(loop.ops()));
  result.count("serve.bytes_served", static_cast<double>(counts.bytes_served));
  result.count("serve.reseeds", static_cast<double>(counts.reseeds));
  result.count("serve.reseed_interval_requests",
               static_cast<double>(
                   trng::RbgServiceConfig{}.drbg.reseed_interval));
  result.count("serve.blocks_produced",
               static_cast<double>(counts.blocks_produced));
  result.count("serve.blocks_discarded",
               static_cast<double>(counts.blocks_discarded));
}

void serve_traced(const RunOptions& options, Result& result, Tracer& tracer) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kSourceRole);
  const TraceBudget budget = trace_budget(options.seconds);
  const Twins twins = twin_fills(result, seed);

  const std::uint32_t start_name = tracer.name_id("trng.rbg_service.start");
  const std::uint32_t fill_name = tracer.name_id("trng.rbg_service.fill");
  std::unique_ptr<ServeRig> rig;
  bool filled = true;
  for (int rep = 0; rep < kTracedStarts; ++rep) {
    rig.reset();
    rig = std::make_unique<ServeRig>(seed);
    {
      Span span(tracer, start_name, 1);
      rig->service.start();
    }
    filled = rig->start_and_fill() && filled;  // start() is a no-op now
  }
  check_ring_filled(result, filled);

  auto stream = rig->service.open_stream(kStreamId);
  std::vector<std::byte> buf(kFillBytes);
  std::vector<std::byte> first;
  std::vector<double> occupancy;
  const std::uint64_t produced0 = rig->service.blocks_produced();
  const std::uint64_t discarded0 = rig->service.blocks_discarded();
  Loop untraced, traced;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    run_slice(result, untraced, budget.untraced_s / kTraceSlices, 1,
              [&](std::size_t) {
                record_fill(result, stream.fill(buf));
                if (first.empty()) first = buf;
              });
    run_slice(result, traced, budget.traced_s / kTraceSlices, 1,
              [&](std::size_t i) {
                tracer.set_op(i + 1);
                FillStatus status;
                {
                  Span span(tracer, fill_name, kFillBytes);
                  status = stream.fill(buf);
                }
                record_fill(result, status);
                occupancy.push_back(
                    static_cast<double>(rig->service.ring_size_approx()));
              });
  }
  check_stream_twins(result, first, twins.same_id, twins.other_id);
  tracer.set_op(0);
  const double produced =
      static_cast<double>(rig->service.blocks_produced() - produced0);
  const double discarded =
      static_cast<double>(rig->service.blocks_discarded() - discarded0);
  const double reseeds = static_cast<double>(stream.reseeds());
  check_threads(result, std::max(untraced.max_threads, traced.max_threads),
                kServeThreads);

  // Standalone probes of the consumer's layers: a Hash_DRBG twin and the
  // SHA-256 it runs on, over the same 64 KiB request size. The producer
  // keeps running, so the probes see the same contention as the fills.
  ptrng::SplitMix64 gen(ptrng::chunk_seed(options.seed, kDrbgRole));
  std::vector<std::byte> entropy(32), nonce(8);
  for (auto& b : entropy) b = static_cast<std::byte>(gen.next());
  for (auto& b : nonce) b = static_cast<std::byte>(gen.next());
  trng::HashDrbg drbg;
  drbg.instantiate(entropy, nonce);
  const std::uint32_t drbg_name = tracer.name_id("trng.drbg.generate");
  const std::uint32_t sha_name = tracer.name_id("common.sha256.update");
  bool drbg_ok = true;
  const std::int64_t probe_end =
      now_ns() + static_cast<std::int64_t>(budget.probes_s * 1e9);
  for (int round = 0; round < 3 || now_ns() < probe_end; ++round) {
    {
      Span span(tracer, drbg_name, kFillBytes);
      drbg_ok = drbg.generate(buf) == trng::HashDrbg::Status::kOk && drbg_ok;
    }
    ptrng::Sha256 sha;
    {
      Span span(tracer, sha_name, kFillBytes);
      sha.update(buf);
    }
  }
  rig->service.stop();
  result.check("serve: standalone DRBG probe returns kOk", drbg_ok);

  const auto layers = layer_stats(tracer);
  const LayerStats& fill = layers.at("trng.rbg_service.fill");
  const LayerStats& gen_stats = layers.at("trng.drbg.generate");
  const LayerStats& sha_stats = layers.at("common.sha256.update");
  result.metric("trng.drbg.ns_per_byte", gen_stats.ns_per_unit(), "ns");
  result.metric("common.sha256.ns_per_byte", sha_stats.ns_per_unit(), "ns");
  // Fill minus the DRBG work it wraps: the health gate, backoff and waits.
  result.metric("trng.rbg_service.self_us_per_op",
                (median(fill.durations_ns) - median(gen_stats.durations_ns)) *
                    1e-3,
                "us");
  result.metric("trng.rbg_service.start_ms",
                median(layers.at("trng.rbg_service.start").durations_ns) * 1e-6,
                "ms");
  result.metric("trng.rbg_service.blocks_discarded_per_s",
                discarded / (untraced.elapsed_s + traced.elapsed_s), "1/s");
  result.metric("trng.rbg_service.ring_occupancy",
                occupancy.empty() ? 0.0 : median(occupancy), "blocks");
  result.metric("trng.drbg.reseeds", reseeds, "count");
  result.count("serve.reseed_interval_requests",
               static_cast<double>(rig->service.config().drbg.reseed_interval));
  result.metric("trng.rbg_service.fills",
                static_cast<double>(untraced.ops() + traced.ops()), "count");
  result.metric("trng.rbg_service.blocks_produced", produced, "count");
  result.metric("trng.rbg_service.blocks_discarded", discarded, "count");
  overhead_metrics(result, "serve", untraced, traced);
}

}  // namespace perfbench
