#include "campaign.hpp"

#include <bit>
#include <map>

#include "common/parallel.hpp"
#include "noise/filter_bank.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "stats/descriptive.hpp"
#include "transistor/technology.hpp"
#include "trng/cell_array.hpp"
#include "trng/continuous_health.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace trng = ::ptrng::trng;

namespace {

constexpr std::uint64_t kCampaignRole = 5;
constexpr std::uint64_t kProbeRole = 6;
// Warm-up shards run with one fixed seed, so every run's set-up does the
// same work.
constexpr std::uint64_t kWarmupSeed = 0x5e70;
constexpr std::size_t kCheckCorners = 12;
constexpr std::size_t kCheckSeeds = 2;
constexpr const char* kClasses[] = {"ero", "ero_attacked", "multi_ring",
                                    "multi_ring_attacked", "cell_array"};
constexpr const char* kFamilies[] = {"ero", "multi_ring", "cell_array"};
constexpr std::size_t kFoldRepeats = 16;
constexpr std::size_t kProbeBits = 2048;
constexpr std::size_t kNextBitCalls = 256;
constexpr std::size_t kFilterSamples = 4096;
constexpr std::size_t kProbeVectors = 4;
constexpr std::uint32_t kProbeDivider = 200;

bool same_state(const ptrng::stats::RunningStatsState& a,
                const ptrng::stats::RunningStatsState& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.n == b.n && bits(a.mean) == bits(b.mean) &&
         bits(a.m2) == bits(b.m2) && bits(a.m3) == bits(b.m3) &&
         bits(a.m4) == bits(b.m4) && bits(a.min) == bits(b.min) &&
         bits(a.max) == bits(b.max);
}

std::size_t shard_cell(const std::vector<model::CornerSpec>& grid,
                       const model::CampaignConfig& config, std::uint64_t s) {
  return static_cast<std::size_t>((s / config.seeds) % grid.size());
}

/// Set-up: the grid plus one warm-up shard per generator family.
std::vector<model::CornerSpec> setup_grid(const model::CampaignConfig& config) {
  auto grid = model::expand_grid(config);
  for (const char* family : kFamilies) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].generator != family) continue;
      (void)model::run_shard(grid[i], ptrng::chunk_seed(kWarmupSeed, i),
                             config);
      break;
    }
  }
  return grid;
}

void campaign_check(Result& result, std::uint64_t seed) {
  model::CampaignConfig config = campaign_config(seed);
  config.corners = kCheckCorners;
  config.seeds = kCheckSeeds;
  const model::CampaignReport report = model::run_campaign(config);
  const auto grid = model::expand_grid(config);
  std::vector<model::CornerAccumulator> own(grid.size());
  for (std::uint64_t s = 0; s < kCheckCorners * kCheckSeeds; ++s)
    fold_shard(grid, config, own, s);
  std::vector<model::CornerAccumulator> library;
  for (const auto& row : report.corners) library.push_back(row.acc);
  check_campaign_accumulators(result, library, own);
}

std::map<std::string, std::size_t> class_counts(
    const std::vector<model::CornerSpec>& grid) {
  std::map<std::string, std::size_t> counts;
  for (const char* c : kClasses) counts[c] = 0;
  for (const auto& spec : grid) ++counts[shard_class(spec)];
  return counts;
}

}  // namespace

model::CampaignConfig campaign_config(std::uint64_t seed) {
  model::CampaignConfig config;
  config.corners = 0;
  config.seeds = 1;
  config.bits_per_shard = kCampaignBitsPerShard;
  config.seed = seed;
  return config;
}

std::string shard_class(const model::CornerSpec& spec) {
  if (spec.attack == "none" || spec.generator == "cell_array")
    return spec.generator;
  return spec.generator + "_attacked";
}

void fold_shard(const std::vector<model::CornerSpec>& grid,
                const model::CampaignConfig& config,
                std::vector<model::CornerAccumulator>& accs, std::uint64_t s) {
  const std::size_t cell = shard_cell(grid, config, s);
  accs[cell].fold(model::run_shard(
      grid[cell], ptrng::chunk_seed(config.seed, s), config));
}

bool same_accumulator(const model::CornerAccumulator& a,
                      const model::CornerAccumulator& b) {
  return a.shards == b.shards && a.ais31_run == b.ais31_run &&
         a.ais31_pass == b.ais31_pass && a.alarmed == b.alarmed &&
         same_state(a.markov_entropy.state(), b.markov_entropy.state()) &&
         same_state(a.min_entropy.state(), b.min_entropy.state()) &&
         same_state(a.detect_latency.state(), b.detect_latency.state());
}

void check_campaign_accumulators(
    Result& result, const std::vector<model::CornerAccumulator>& library,
    const std::vector<model::CornerAccumulator>& own) {
  std::size_t bad = library.size() == own.size() ? library.size() : 0;
  if (library.size() == own.size()) {
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (!same_accumulator(library[i], own[i])) {
        bad = i;
        break;
      }
    }
  }
  const bool ok = library.size() == own.size() && bad == own.size();
  result.check("campaign: run_campaign == own run_shard + fold", ok,
               ok ? std::to_string(own.size()) + " corners agree"
                  : "corner " + std::to_string(bad) + " differs (" +
                        std::to_string(library.size()) + " vs " +
                        std::to_string(own.size()) + " corners)");
}

void check_folded(Result& result, std::uint64_t folded, std::size_t ops) {
  result.check("campaign: every op folded one shard", folded == ops,
               std::to_string(folded) + " folded, " + std::to_string(ops) +
                   " ops");
}

void campaign_end_to_end(const RunOptions& options, Result& result) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kCampaignRole);
  campaign_check(result, seed);
  const model::CampaignConfig config = campaign_config(seed);

  // Each slice sets up the grid again (timed) and runs whole passes of it;
  // the op count carries on across slices, so shard s stays shard s.
  std::vector<Timed> setups;
  std::vector<model::CornerSpec> grid;
  std::vector<model::CornerAccumulator> accs;
  Loop loop;
  for (int slice = 0; slice < kSetupRepetitions; ++slice) {
    setups.push_back(time_normalized([&] { grid = setup_grid(config); }));
    accs.resize(grid.size());
    loop.granule = grid.size();
    run_slice(result, loop, options.seconds / kSetupRepetitions,
              kMinSliceOps, [&](std::size_t s) {
                fold_shard(grid, config, accs, s);
                result.record_op(true, "campaign: shard ran");
              });
  }
  std::uint64_t folded = 0;
  for (const auto& a : accs) folded += a.shards;
  check_folded(result, folded, loop.ops());
  check_threads(result, loop.max_threads, 1);
  end_to_end_metrics(result, loop, setups);
  const std::size_t passes = loop.ops() / grid.size();
  result.count("campaign.grid_cells", static_cast<double>(grid.size()));
  result.count("campaign.passes", static_cast<double>(passes));
  for (const auto& [name, n] : class_counts(grid))
    result.count("campaign.shards." + name, static_cast<double>(n * passes));
}

void campaign_traced(const RunOptions& options, Result& result,
                     Tracer& tracer) {
  const std::uint64_t seed = ptrng::chunk_seed(options.seed, kCampaignRole);
  const TraceBudget budget = trace_budget(options.seconds);
  campaign_check(result, seed);
  const model::CampaignConfig config = campaign_config(seed);
  const auto grid = setup_grid(config);

  // One whole pass each, untraced and traced, so both cover the same mix.
  std::vector<model::CornerAccumulator> plain(grid.size());
  Loop untraced(grid.size());
  run_slice(result, untraced, 0.0, 1, [&](std::size_t s) {
    fold_shard(grid, config, plain, s);
    result.record_op(true, "campaign: shard ran");
  });

  std::map<std::string, std::uint32_t> shard_names;
  for (const char* c : kClasses)
    shard_names[c] =
        tracer.name_id(std::string("model.fleet_campaign.run_shard.") + c);
  const std::uint32_t op_name = tracer.name_id("model.fleet_campaign.op");
  const std::uint32_t fold_name = tracer.name_id("model.fleet_campaign.fold");
  std::vector<model::CornerAccumulator> traced_accs(grid.size());
  std::vector<model::ShardResult> results;
  const std::uint64_t first_op = 1;
  Loop traced(grid.size());
  run_slice(result, traced, 0.0, 1, [&](std::size_t s) {
    tracer.set_op(first_op + s);
    const std::size_t cell = shard_cell(grid, config, s);
    Span op(tracer, op_name, 1);
    model::ShardResult r;
    {
      Span span(tracer, shard_names[shard_class(grid[cell])],
                config.bits_per_shard);
      r = model::run_shard(grid[cell], ptrng::chunk_seed(config.seed, s),
                           config);
    }
    {
      Span span(tracer, fold_name, 1);
      traced_accs[cell].fold(r);
    }
    results.push_back(r);
    result.record_op(true, "campaign: shard ran");
  });
  tracer.set_op(0);
  check_campaign_accumulators(result, plain, traced_accs);
  check_threads(result, std::max(untraced.max_threads, traced.max_threads),
                1);

  // Probes of the layers a shard runs: the fold alone, the shard's
  // entropy estimators and health scan on 2000 bits, the multi-ring and
  // cell-array generators, and the flicker filter bank.
  const std::uint64_t probe_seed = ptrng::chunk_seed(options.seed, kProbeRole);
  std::vector<std::vector<std::uint8_t>> vectors;
  {
    trng::EroTrng ero = trng::paper_trng(kProbeDivider, probe_seed);
    for (std::size_t i = 0; i < kProbeVectors; ++i)
      vectors.push_back(ero.generate_bits(config.bits_per_shard));
  }
  trng::MultiRingTrng ring_batch =
      trng::paper_multi_ring(config.rings, config.divider, probe_seed);
  trng::MultiRingTrng ring_step =
      trng::paper_multi_ring(config.rings, config.divider, probe_seed + 1);
  trng::CellArrayConfig cell_cfg = trng::cell_array_from_technology(
      ptrng::transistor::technology_node("90nm"), config.cells, 5, 1.0, true);
  cell_cfg.seed = probe_seed;
  trng::CellArrayTrng cells(cell_cfg);
  const auto ring_cfg = ptrng::oscillator::paper_single_config(probe_seed);
  const double f0 = ring_cfg.f0;
  ptrng::noise::FilterBankFlicker flicker(ptrng::noise::flicker_band_config(
      ring_cfg.b_fl / (f0 * f0 * f0 * f0), f0,
      f0 * ring_cfg.flicker_floor_ratio, probe_seed,
      ring_cfg.flicker_stages_per_decade));

  const std::uint32_t fold_probe =
      tracer.name_id("model.fleet_campaign.fold_probe");
  const std::uint32_t entropy_name =
      tracer.name_id("trng.entropy.shard_estimators");
  const std::uint32_t health_name = tracer.name_id("trng.health.shard_scan");
  const std::uint32_t mr_gen = tracer.name_id("trng.multi_ring.generate_into");
  const std::uint32_t mr_next = tracer.name_id("trng.multi_ring.next_bit");
  const std::uint32_t ca_gen = tracer.name_id("trng.cell_array.generate_into");
  const std::uint32_t fb_fill = tracer.name_id("noise.filter_bank.fill");
  std::vector<std::uint8_t> bits(kProbeBits);
  std::vector<double> samples(kFilterSamples);
  double sink = 0.0;
  const std::int64_t probe_end =
      now_ns() + static_cast<std::int64_t>(budget.probes_s * 1e9);
  for (std::size_t round = 0; round < 3 || now_ns() < probe_end; ++round) {
    {
      std::vector<model::CornerAccumulator> scratch(grid.size());
      Span span(tracer, fold_probe, kFoldRepeats * results.size());
      for (std::size_t k = 0; k < kFoldRepeats; ++k)
        for (std::size_t i = 0; i < results.size(); ++i)
          scratch[i].fold(results[i]);
      sink += static_cast<double>(scratch[0].shards);
    }
    const auto& v = vectors[round % vectors.size()];
    {
      Span span(tracer, entropy_name, 1);
      sink += trng::markov_entropy_rate(v) + trng::min_entropy(v, 8);
    }
    {
      Span span(tracer, health_name, 1);
      trng::HealthEngine engine{trng::ContinuousHealthConfig{}};
      engine.process(v);
      sink += static_cast<double>(engine.bits_seen());
    }
    {
      Span span(tracer, mr_gen, kProbeBits);
      ring_batch.generate_into(bits);
    }
    {
      Span span(tracer, mr_next, kNextBitCalls);
      for (std::size_t i = 0; i < kNextBitCalls; ++i)
        sink += ring_step.next_bit();
    }
    {
      Span span(tracer, ca_gen, kProbeBits);
      cells.generate_into(bits);
    }
    {
      Span span(tracer, fb_fill, kFilterSamples);
      flicker.fill(samples);
    }
    sink += bits[0] + samples[0];
  }
  result.check("campaign: probes ran", sink != 0.0);

  const auto layers = layer_stats(tracer);
  const auto counts = class_counts(grid);
  for (const char* c : kClasses) {
    const auto it =
        layers.find(std::string("model.fleet_campaign.run_shard.") + c);
    result.metric(
        std::string("model.fleet_campaign.shard_ms.") + c,
        it == layers.end() ? 0.0 : median(it->second.durations_ns) * 1e-6,
        "ms");
    result.metric(std::string("model.fleet_campaign.shards.") + c,
                  static_cast<double>(counts.at(c)), "count");
  }
  result.metric("model.fleet_campaign.fold_ns",
                layers.at("model.fleet_campaign.fold_probe").ns_per_unit(),
                "ns");
  result.metric(
      "trng.entropy.us_per_shard",
      layers.at("trng.entropy.shard_estimators").ns_per_unit() * 1e-3, "us");
  result.metric("trng.health.us_per_shard",
                layers.at("trng.health.shard_scan").ns_per_unit() * 1e-3, "us");
  result.metric("trng.multi_ring.ns_per_bit",
                layers.at("trng.multi_ring.generate_into").ns_per_unit(), "ns");
  result.metric("trng.multi_ring.next_bit_ns",
                layers.at("trng.multi_ring.next_bit").ns_per_unit(), "ns");
  result.metric("trng.cell_array.ns_per_bit",
                layers.at("trng.cell_array.generate_into").ns_per_unit(), "ns");
  result.metric("noise.filter_bank.ns_per_sample",
                layers.at("noise.filter_bank.fill").ns_per_unit(), "ns");
  overhead_metrics(result, "campaign", untraced, traced);
  result.count("campaign.traced_shards", static_cast<double>(traced.ops()));
}

}  // namespace perfbench
