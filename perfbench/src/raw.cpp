#include "raw.hpp"

#include <algorithm>
#include <memory>

#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"
#include "common/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace oscillator = ::ptrng::oscillator;

namespace {

constexpr std::size_t kWarmupOps = 16;
constexpr std::size_t kCheckOps = 4;
constexpr std::uint64_t kSourceRole = 1;
constexpr std::uint64_t kOscillatorRole = 2;
constexpr std::size_t kNextPeriodBatch = 4096;
constexpr std::size_t kAdvanceBatch = 64;
constexpr std::uint64_t kAdvancePeriods = 200;

trng::ConditionerConfig conditioner_config() {
  trng::ConditionerConfig cfg;
  cfg.h_min = 0.5;
  return cfg;
}

const char* const kHealthCheck = "raw: health engine stays nominal";

}  // namespace

RawChain::RawChain(std::uint64_t seed)
    : source_(trng::paper_trng(kRawDivider, seed)),
      health_(trng::ContinuousHealthConfig{}),
      pipeline_(source_, kRawBlockBits),
      conditioner_(conditioner_config()) {
  pipeline_.attach_tap(health_);
}

bool RawChain::op(std::span<std::byte> out) {
  conditioner_.condition(pipeline_, out);
  return health_.state() == trng::HealthState::kNominal;
}

TracedRawChain::TracedRawChain(std::uint64_t seed, Tracer& tracer)
    : source_(trng::paper_trng(kRawDivider, seed)),
      health_(trng::ContinuousHealthConfig{}),
      tracer_(tracer),
      traced_source_(source_, tracer, "trng.ero.generate_into"),
      traced_health_(health_, tracer),
      pipeline_(traced_source_, kRawBlockBits),
      traced_pipeline_(pipeline_, tracer, "trng.pipeline.generate_into"),
      conditioner_(conditioner_config()),
      op_name_(tracer.name_id("raw.op")),
      condition_name_(tracer.name_id("trng.conditioning.condition")) {
  pipeline_.attach_tap(traced_health_);
}

bool TracedRawChain::op(std::span<std::byte> out) {
  Span op(tracer_, op_name_, 1);
  {
    Span condition(tracer_, condition_name_, out.size());
    conditioner_.condition(traced_pipeline_, out);
  }
  return health_.state() == trng::HealthState::kNominal;
}

void check_decomposed_matches_composed(Result& result, RawChain& composed,
                                       TracedRawChain& decomposed,
                                       std::size_t ops) {
  std::vector<std::byte> a(kRawOpBytes), b(kRawOpBytes);
  std::size_t mismatch = ops;
  for (std::size_t i = 0; i < ops && mismatch == ops; ++i) {
    composed.op(a);
    decomposed.op(b);
    if (a != b) mismatch = i;
  }
  result.check("raw: traced decomposed op == composed Pipeline op",
               mismatch == ops,
               mismatch == ops ? std::to_string(ops) + " ops agree"
                               : "op " + std::to_string(mismatch) +
                                     " differs");
}

void check_raw_bits(Result& result, std::uint64_t conditioner_bits,
                    std::uint64_t pipeline_bits, std::uint64_t ops) {
  const std::uint64_t want = kRawBlockBits * ops;
  result.check("raw: bits_in == 4096 x ops",
               conditioner_bits == want && pipeline_bits == want,
               "conditioner " + std::to_string(conditioner_bits) +
                   ", pipeline " + std::to_string(pipeline_bits) +
                   ", want " + std::to_string(want));
}

std::uint64_t hash_df_sha256_bytes(std::uint64_t in_bytes,
                                   std::uint64_t out_bytes) {
  const std::uint64_t messages = (out_bytes + 31) / 32;
  return messages * (1 + 4 + in_bytes);
}

namespace {

void raw_check_twins(Result& result, std::uint64_t seed) {
  Tracer scratch;
  RawChain composed(seed);
  TracedRawChain decomposed(seed, scratch);
  check_decomposed_matches_composed(result, composed, decomposed, kCheckOps);
}

void raw_counts(Result& result) {
  result.count("raw.bits_per_op", kRawBlockBits);
  result.count("raw.conditioned_bytes_per_op", kRawOpBytes);
  result.count("raw.pumps_per_op", 1);
  result.count("raw.sha256_bytes_per_op",
               static_cast<double>(
                   hash_df_sha256_bytes(kRawBlockBits / 8, kRawOpBytes)));
}

}  // namespace

void raw_end_to_end(const RunOptions& options, Result& result) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kSourceRole);
  raw_check_twins(result, seed);

  // Each slice sets up a fresh chain on the same seed (construction plus
  // a fixed warm-up of whole pumps, timed) and measures ops on it.
  std::vector<std::byte> out(kRawOpBytes);
  std::vector<Timed> setups;
  std::unique_ptr<RawChain> chain;
  std::uint64_t conditioner_bits = 0, pipeline_bits = 0;
  Loop loop;
  for (int slice = 0; slice < kSetupRepetitions; ++slice) {
    if (chain) {
      conditioner_bits += chain->bits_in();
      pipeline_bits += chain->raw_bits();
      chain.reset();
    }
    setups.push_back(time_normalized([&] {
      chain = std::make_unique<RawChain>(seed);
      for (std::size_t i = 0; i < kWarmupOps; ++i) chain->op(out);
    }));
    run_slice(result, loop, options.seconds / kSetupRepetitions,
              kMinSliceOps, [&](std::size_t) {
                result.record_op(chain->op(out), kHealthCheck);
              });
  }
  conditioner_bits += chain->bits_in();
  pipeline_bits += chain->raw_bits();
  const std::uint64_t ops = kSetupRepetitions * kWarmupOps + loop.ops();
  check_raw_bits(result, conditioner_bits, pipeline_bits, ops);
  check_threads(result, loop.max_threads, 1);
  end_to_end_metrics(result, loop, setups);
  raw_counts(result);
  result.count("raw.bits_in", static_cast<double>(conditioner_bits));
}

void raw_traced(const RunOptions& options, Result& result, Tracer& tracer) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kSourceRole);
  const TraceBudget budget = trace_budget(options.seconds);
  raw_check_twins(result, seed);

  std::vector<std::byte> out(kRawOpBytes);
  RawChain plain(seed);
  TracedRawChain traced_chain(seed, tracer);
  Loop untraced, traced;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    run_slice(result, untraced, budget.untraced_s / kTraceSlices, 1,
              [&](std::size_t) {
                result.record_op(plain.op(out), kHealthCheck);
              });
    run_slice(result, traced, budget.traced_s / kTraceSlices, 1,
              [&](std::size_t i) {
                tracer.set_op(i + 1);
                result.record_op(traced_chain.op(out), kHealthCheck);
              });
  }
  tracer.set_op(0);
  check_threads(result, std::max(untraced.max_threads, traced.max_threads),
                1);

  // Oscillator twin: the paper-config ring the eRO steps, probed per
  // period and per 200-period block advance.
  oscillator::RingOscillator ring(oscillator::paper_single_config(
      ptrng::chunk_seed(options.seed, kOscillatorRole)));
  const std::uint32_t next_name = tracer.name_id("oscillator.next_period");
  const std::uint32_t advance_name =
      tracer.name_id("oscillator.advance_periods");
  const std::int64_t probe_end =
      now_ns() + static_cast<std::int64_t>(budget.probes_s * 1e9);
  double sink = 0.0;
  for (int round = 0; round < 3 || now_ns() < probe_end; ++round) {
    {
      Span span(tracer, next_name, kNextPeriodBatch);
      for (std::size_t i = 0; i < kNextPeriodBatch; ++i)
        sink += ring.next_period().period;
    }
    {
      Span span(tracer, advance_name, kAdvanceBatch);
      for (std::size_t i = 0; i < kAdvanceBatch; ++i)
        ring.advance_periods(kAdvancePeriods);
    }
  }
  result.check("raw: oscillator twin advanced", sink > 0.0 &&
                                                    ring.edge_time() > 0.0);

  const auto layers = layer_stats(tracer);
  const LayerStats& ero = layers.at("trng.ero.generate_into");
  const LayerStats& health = layers.at("trng.health.process");
  const LayerStats& pipe = layers.at("trng.pipeline.generate_into");
  const LayerStats& cond = layers.at("trng.conditioning.condition");
  const LayerStats& op = layers.at("raw.op");
  result.metric("trng.ero.ns_per_bit", ero.ns_per_unit(), "ns");
  result.metric("oscillator.next_period_ns",
                layers.at("oscillator.next_period").ns_per_unit(), "ns");
  result.metric("oscillator.advance_periods_ns",
                layers.at("oscillator.advance_periods").ns_per_unit(), "ns");
  result.metric("trng.health.ns_per_bit", health.ns_per_unit(), "ns");
  result.metric("trng.conditioning.us_per_op",
                median(cond.self_ns_each) * 1e-3, "us");
  result.metric("trng.pipeline.self_us_per_op",
                median(pipe.self_ns_each) * 1e-3, "us");
  result.metric("trng.conditioning.sha256_bytes_per_op",
                static_cast<double>(
                    hash_df_sha256_bytes(kRawBlockBits / 8, kRawOpBytes)),
                "count");
  // Share of the op's time the four layers account for; the rest is the
  // op span's own self time (span bookkeeping).
  const double layers_ns = static_cast<double>(
      ero.total_ns + health.total_ns + pipe.self_ns + cond.self_ns);
  result.metric("raw.layers_share_of_op",
                op.total_ns ? layers_ns / static_cast<double>(op.total_ns)
                            : 0.0,
                "ratio");
  overhead_metrics(result, "raw", untraced, traced);
  raw_counts(result);
  result.count("raw.traced_ops", static_cast<double>(traced.ops()));
  result.count("raw.ero_bits_traced", static_cast<double>(ero.units));
}

}  // namespace perfbench
