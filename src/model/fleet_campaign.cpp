#include "model/fleet_campaign.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "attacks/injection.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/sha256.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "transistor/technology.hpp"
#include "trng/ais31.hpp"
#include "trng/cell_array.hpp"
#include "trng/continuous_health.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"
#include "trng/raw_export.hpp"

namespace ptrng::model {
namespace {

// %.17g round-trips every finite double exactly, so two runs that fold
// the same accumulator state render the same JSON bytes.
std::string fmt_g17(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string fmt_f(double x, int prec) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, x);
  return buf;
}

// Campaign grid axes. The node subset walks the scaling trajectory the
// paper's conclusion is about (flicker worsening as nodes shrink)
// without tripling the grid with near-duplicate neighbours.
constexpr const char* kNodes[] = {"180nm", "90nm", "65nm", "28nm"};
constexpr double kFlickerScales[] = {0.0, 1.0, 4.0};
constexpr const char* kGenerators[] = {"ero", "multi_ring", "cell_array"};

// ---------------------------------------------------------------------
// Device construction

// Per-ring flicker multiplier of a node relative to the 180nm
// reference: the paper calibration (paper_single_config) is treated as
// a 180nm-class device and b_fl scales with the node's crystallography
// constant alpha (flicker PSD ~ alpha / (W L^2) at minimum size).
double node_flicker_multiplier(const transistor::TechnologyNode& node) {
  return node.alpha_flicker /
         transistor::technology_node("180nm").alpha_flicker;
}

std::unique_ptr<trng::BitSource> make_device(const CornerSpec& spec,
                                             std::uint64_t shard_seed,
                                             const CampaignConfig& config) {
  const auto attack = attacks::attack_by_name(spec.attack);

  if (spec.generator == "ero") {
    // Mirrors trng::paper_trng / attacks::make_attacked_trng
    // construction: same seed fan, same mismatch split, with the
    // node/corner derating applied BEFORE the attack transform (the
    // attack sees the deployed device, not the paper bench).
    auto sampled = derated_ring(spec, shard_seed, +1.5e-3);
    auto sampling = derated_ring(spec, shard_seed ^ 0xabcdef9876ULL, -1.5e-3);
    trng::EroTrngConfig cfg;
    cfg.divider = config.divider;
    if (!attack) {
      return std::make_unique<trng::EroTrng>(sampled, sampling, cfg);
    }
    const auto atk_sampled = attack->apply(sampled);
    const auto atk_sampling = attack->apply(sampling);
    auto trng =
        std::make_unique<trng::EroTrng>(atk_sampled, atk_sampling, cfg);
    if (attack->modulation_depth > 0.0) {
      trng->sampled().set_modulation(attack->modulation_for(atk_sampled));
      trng->sampling().set_modulation(attack->modulation_for(atk_sampling));
    }
    return trng;
  }

  if (spec.generator == "multi_ring") {
    auto base = derated_ring(spec, shard_seed, 0.0);
    // Injection couples into the whole die: the suppression/entrainment
    // transform applies to the shared base config. The per-ring
    // deterministic beat is not modeled here (MultiRingTrng owns its
    // rings) — coupling + pull already carry the entropy collapse.
    if (attack) base = attack->apply(base);
    trng::MultiRingTrngConfig cfg;
    cfg.rings = config.rings;
    cfg.divider = config.divider;
    return std::make_unique<trng::MultiRingTrng>(base, cfg);
  }

  PTRNG_EXPECTS(spec.generator == "cell_array");
  return std::make_unique<trng::CellArrayTrng>(
      derated_cell_array(spec, shard_seed, config.cells));
}

// ---------------------------------------------------------------------
// Checkpoint wire format (docs/ARCHITECTURE.md §9; all integers LE)

constexpr char kMagic[8] = {'P', 'T', 'R', 'N', 'G', 'C', 'K', 'P'};
constexpr std::uint16_t kCkpVersion = 1;
constexpr char kCkpId[] = "fleet_campaign";
constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kStateWords = 7;   // RunningStatsState as u64s
constexpr std::size_t kCornerWords = 4 + 3 * kStateWords;

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_u64(const std::string& in, std::size_t offset) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[offset + i]))
         << (8 * i);
  return v;
}

void put_state(std::string& out, const stats::RunningStatsState& s) {
  put_u64(out, s.n);
  for (double d : {s.mean, s.m2, s.m3, s.m4, s.min, s.max})
    put_u64(out, std::bit_cast<std::uint64_t>(d));
}

stats::RunningStatsState get_state(const std::string& in,
                                   std::size_t offset) {
  stats::RunningStatsState s;
  s.n = get_u64(in, offset);
  double* fields[] = {&s.mean, &s.m2, &s.m3, &s.m4, &s.min, &s.max};
  for (std::size_t i = 0; i < 6; ++i)
    *fields[i] = std::bit_cast<double>(get_u64(in, offset + 8 * (i + 1)));
  return s;
}

Sha256::Digest campaign_digest(const CampaignConfig& config) {
  return trng::config_digest(canonical_config(config));
}

}  // namespace

// ---------------------------------------------------------------------
// Grid + config identity

oscillator::RingOscillatorConfig derated_ring(const CornerSpec& spec,
                                              std::uint64_t seed,
                                              double mismatch) {
  const auto& node = transistor::technology_node(spec.node);
  const auto& corner = transistor::standard_corner(spec.corner);
  auto cfg = oscillator::paper_single_config(seed);
  cfg.mismatch = mismatch;
  cfg.b_fl *= spec.flicker_scale * node_flicker_multiplier(node);
  cfg.b_th *= corner.thermal_noise_scale();
  cfg.f0 *= corner.speed_scale();
  return cfg;
}

trng::CellArrayConfig derated_cell_array(const CornerSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t cells) {
  const auto& corner = transistor::standard_corner(spec.corner);
  auto cfg = trng::cell_array_from_technology(
      transistor::technology_node(spec.node), cells, /*base_stages=*/5,
      /*fanout=*/1.0, spec.flicker_scale > 0.0);
  // Corner derating in the delay domain: thermal delay VARIANCE scales
  // with T (sigma with sqrt), flicker amplitude with sqrt of the scale
  // (it multiplies a PSD ~ amplitude^2), and every nominal delay
  // divides by the speed multiplier.
  cfg.sigma_stage *= std::sqrt(corner.thermal_noise_scale());
  cfg.flicker_amplitude *= std::sqrt(spec.flicker_scale);
  cfg.stage_delay /= corner.speed_scale();
  cfg.seed = seed;
  return cfg;
}

std::string CornerSpec::name() const {
  std::ostringstream os;
  os << generator << '/' << node << '/' << corner << "/f";
  // flicker scales are small integers by construction; render compactly
  if (flicker_scale == static_cast<std::uint64_t>(flicker_scale))
    os << static_cast<std::uint64_t>(flicker_scale);
  else
    os << fmt_g17(flicker_scale);
  os << '/' << attack;
  return os.str();
}

std::vector<CornerSpec> expand_grid(const CampaignConfig& config) {
  std::vector<CornerSpec> grid;
  for (const char* gen : kGenerators) {
    const bool attackable = std::string_view(gen) != "cell_array";
    for (const char* node : kNodes) {
      for (const auto& corner : transistor::standard_corners()) {
        for (double fl : kFlickerScales) {
          for (const char* atk : attacks::attack_names()) {
            if (!attackable && std::string_view(atk) != "none") continue;
            grid.push_back({gen, node, corner.name, fl, atk});
          }
        }
      }
    }
  }
  if (config.corners != 0 && config.corners < grid.size())
    grid.resize(config.corners);
  return grid;
}

std::string canonical_config(const CampaignConfig& config) {
  std::ostringstream os;
  os << "fleet_campaign|v1"
     << "|corners=" << config.corners << "|seeds=" << config.seeds
     << "|bits=" << config.bits_per_shard << "|seed=" << config.seed
     << "|ais31=" << (config.run_ais31 ? 1 : 0)
     << "|divider=" << config.divider << "|rings=" << config.rings
     << "|cells=" << config.cells;
  return os.str();
}

// ---------------------------------------------------------------------
// Shard measurement + folding

ShardResult run_shard(const CornerSpec& spec, std::uint64_t shard_seed,
                      const CampaignConfig& config) {
  // The Markov estimator needs >= 1000 bits; smaller shards would
  // measure nothing meaningful anyway.
  PTRNG_EXPECTS(config.bits_per_shard >= 1000);
  auto device = make_device(spec, shard_seed, config);
  std::vector<std::uint8_t> bits(config.bits_per_shard);
  device->generate_into(bits);

  ShardResult r;
  r.markov_entropy = trng::markov_entropy_rate(bits);
  r.min_entropy = trng::min_entropy(bits, 8);
  if (config.run_ais31 && bits.size() >= trng::ais31::quick_battery_bits()) {
    r.ais31_run = true;
    r.ais31_pass = trng::ais31::quick_battery(bits).passed;
  }
  trng::HealthEngine engine{trng::ContinuousHealthConfig{}};
  engine.process(bits);
  if (engine.alarmed()) {
    r.alarmed = true;
    r.latency_bits = static_cast<double>(engine.first_alarm_bit() + 1);
  }
  return r;
}

void CornerAccumulator::fold(const ShardResult& r) {
  markov_entropy.add(r.markov_entropy);
  min_entropy.add(r.min_entropy);
  ++shards;
  if (r.ais31_run) {
    ++ais31_run;
    if (r.ais31_pass) ++ais31_pass;
  }
  if (r.alarmed) {
    ++alarmed;
    detect_latency.add(r.latency_bits);
  }
}

double CornerAccumulator::ais31_pass_rate() const noexcept {
  return ais31_run == 0
             ? 1.0
             : static_cast<double>(ais31_pass) / static_cast<double>(ais31_run);
}

double CornerAccumulator::alarm_rate() const noexcept {
  return shards == 0
             ? 0.0
             : static_cast<double>(alarmed) / static_cast<double>(shards);
}

// ---------------------------------------------------------------------
// Checkpoint I/O

void write_checkpoint(const std::string& path, const CampaignConfig& config,
                      const CampaignState& state) {
  PTRNG_EXPECTS(!path.empty());
  std::string out;
  out.reserve(kHeaderSize + 16 + state.corners.size() * kCornerWords * 8);
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kCkpVersion & 0xff));
  out.push_back(static_cast<char>(kCkpVersion >> 8));
  out.append(6, '\0');  // reserved, offsets 10..15
  char id[16] = {};
  std::memcpy(id, kCkpId, sizeof(kCkpId) - 1);
  out.append(id, sizeof(id));
  const auto digest = campaign_digest(config);
  out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
  PTRNG_ENSURES(out.size() == kHeaderSize);

  put_u64(out, state.folded);
  put_u64(out, state.corners.size());
  for (const auto& c : state.corners) {
    put_u64(out, c.shards);
    put_u64(out, c.ais31_run);
    put_u64(out, c.ais31_pass);
    put_u64(out, c.alarmed);
    put_state(out, c.markov_entropy.state());
    put_state(out, c.min_entropy.state());
    put_state(out, c.detect_latency.state());
  }

  // Atomic publication: a reader (or a resumed campaign after SIGKILL)
  // only ever sees a complete snapshot or the previous one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw DataError("cannot write checkpoint: " + tmp);
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) throw DataError("short checkpoint write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw DataError("cannot publish checkpoint: " + path);
}

std::optional<CampaignState> read_checkpoint(const std::string& path,
                                             const CampaignConfig& config) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string in = buf.str();
  if (in.size() < kHeaderSize + 16)
    throw DataError("checkpoint truncated: " + path);
  if (std::memcmp(in.data(), kMagic, sizeof(kMagic)) != 0)
    throw DataError("checkpoint bad magic: " + path);
  const auto version = static_cast<std::uint16_t>(
      static_cast<unsigned char>(in[8]) |
      (static_cast<unsigned char>(in[9]) << 8));
  if (version != kCkpVersion)
    throw DataError("checkpoint unsupported version: " + path);
  for (std::size_t i = 10; i < 16; ++i)
    if (in[i] != '\0') throw DataError("checkpoint reserved bytes: " + path);
  char id[16] = {};
  std::memcpy(id, kCkpId, sizeof(kCkpId) - 1);
  if (std::memcmp(in.data() + 16, id, sizeof(id)) != 0)
    throw DataError("checkpoint foreign id: " + path);
  const auto digest = campaign_digest(config);
  if (std::memcmp(in.data() + 32, digest.data(), digest.size()) != 0)
    throw DataError(
        "checkpoint config digest mismatch (different campaign config): " +
        path);

  CampaignState state;
  state.folded = get_u64(in, kHeaderSize);
  const std::uint64_t corners = get_u64(in, kHeaderSize + 8);
  const std::size_t need =
      kHeaderSize + 16 + corners * kCornerWords * 8;
  if (in.size() != need)
    throw DataError("checkpoint payload size mismatch: " + path);
  if (corners != expand_grid(config).size())
    throw DataError("checkpoint corner count disagrees with config: " + path);
  state.corners.resize(corners);
  std::size_t off = kHeaderSize + 16;
  for (auto& c : state.corners) {
    c.shards = get_u64(in, off);
    c.ais31_run = get_u64(in, off + 8);
    c.ais31_pass = get_u64(in, off + 16);
    c.alarmed = get_u64(in, off + 24);
    c.markov_entropy =
        stats::RunningStats::from_state(get_state(in, off + 32));
    c.min_entropy = stats::RunningStats::from_state(
        get_state(in, off + 32 + 8 * kStateWords));
    c.detect_latency = stats::RunningStats::from_state(
        get_state(in, off + 32 + 16 * kStateWords));
    off += kCornerWords * 8;
  }
  return state;
}

// ---------------------------------------------------------------------
// Campaign driver

CampaignReport run_campaign(const CampaignConfig& config) {
  PTRNG_EXPECTS(config.seeds > 0);
  const auto grid = expand_grid(config);
  const std::uint64_t total =
      static_cast<std::uint64_t>(grid.size()) * config.seeds;

  CampaignState state;
  state.corners.resize(grid.size());
  if (config.resume && !config.checkpoint_path.empty()) {
    if (auto loaded = read_checkpoint(config.checkpoint_path, config)) {
      if (loaded->folded > total)
        throw DataError("checkpoint folded prefix exceeds campaign size");
      state = std::move(*loaded);
    }
  }

  const std::size_t batch = config.batch_size == 0 ? 64 : config.batch_size;
  std::uint64_t folded_this_run = 0;
  std::vector<ShardResult> results;
  while (state.folded < total) {
    if (config.max_shards != 0 && folded_this_run >= config.max_shards)
      break;
    std::uint64_t n = std::min<std::uint64_t>(batch, total - state.folded);
    if (config.max_shards != 0)
      n = std::min<std::uint64_t>(n, config.max_shards - folded_this_run);
    const std::uint64_t base = state.folded;
    results.assign(static_cast<std::size_t>(n), ShardResult{});
    // One shard per claim, grain 1: shard costs are uneven (a modulated
    // attacked eRO shard costs about 1.5x an unattacked one, see
    // bench_fleet_campaign's bm_ero_shard rows), and a free lane takes
    // the next shard at once. A shard's own parallel_for (multi-ring
    // rings, cell-array cells) runs inline on its lane. Results land in
    // fixed slots, so the fold below never sees completion order.
    parallel_for(0, static_cast<std::size_t>(n), 1,
                 [&](std::size_t b, std::size_t e) {
                   for (std::size_t i = b; i < e; ++i) {
                     const std::uint64_t s = base + i;
                     results[i] = run_shard(
                         grid[static_cast<std::size_t>(s / config.seeds)],
                         chunk_seed(config.seed, s), config);
                   }
                 });
    // Order-invariant fold: shard index order, independent of which
    // worker finished first — campaign state is a pure function of
    // (config, folded prefix), the checkpoint soundness invariant.
    for (std::uint64_t i = 0; i < n; ++i)
      state.corners[static_cast<std::size_t>((base + i) / config.seeds)]
          .fold(results[static_cast<std::size_t>(i)]);
    state.folded += n;
    folded_this_run += n;
    if (!config.checkpoint_path.empty())
      write_checkpoint(config.checkpoint_path, config, state);
    if (config.progress) config.progress(state.folded, total);
  }

  CampaignReport report;
  report.shards_folded = state.folded;
  report.shards_total = total;
  report.complete = state.folded == total;
  report.config_digest = to_hex(campaign_digest(config));
  report.corners.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    CornerReport row;
    row.spec = grid[i];
    row.acc = state.corners[i];
    if (row.acc.shards == 0) {
      row.verdict = "pending";
    } else if (row.spec.attack == "none") {
      row.verdict = (row.acc.ais31_pass_rate() >= 0.75 &&
                     row.acc.alarm_rate() <= 0.25)
                        ? "pass"
                        : "degraded";
    } else {
      row.verdict = row.acc.alarm_rate() >= 0.5 ? "detected" : "missed";
    }
    report.corners.push_back(std::move(row));
  }
  return report;
}

// ---------------------------------------------------------------------
// Report rendering

std::string CampaignReport::table() const {
  std::ostringstream os;
  os << "fleet campaign: " << shards_folded << "/" << shards_total
     << " shards" << (complete ? "" : " (partial)") << ", config "
     << config_digest.substr(0, 12) << "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-32s %6s %8s %8s %7s %7s %10s %s\n",
                "corner", "shards", "H_markov", "H_min", "ais31", "alarm",
                "latency", "verdict");
  os << line;
  for (const auto& row : corners) {
    const auto& a = row.acc;
    std::snprintf(
        line, sizeof(line), "%-32s %6llu %8s %8s %6.0f%% %6.0f%% %10s %s\n",
        row.spec.name().c_str(), static_cast<unsigned long long>(a.shards),
        fmt_f(a.markov_entropy.mean(), 4).c_str(),
        fmt_f(a.min_entropy.mean(), 4).c_str(), 100.0 * a.ais31_pass_rate(),
        100.0 * a.alarm_rate(),
        a.alarmed ? fmt_f(a.detect_latency.mean(), 1).c_str() : "-",
        row.verdict.c_str());
    os << line;
  }
  return os.str();
}

namespace {
void json_stats(std::ostringstream& os, const char* key,
                const stats::RunningStats& s) {
  os << '"' << key << "\":{\"n\":" << s.count()
     << ",\"mean\":" << fmt_g17(s.mean())
     << ",\"stddev\":" << fmt_g17(s.stddev())
     << ",\"min\":" << fmt_g17(s.min()) << ",\"max\":" << fmt_g17(s.max())
     << '}';
}
}  // namespace

std::string CampaignReport::json() const {
  std::ostringstream os;
  os << "{\"format\":\"ptrng-fleet-campaign-report\",\"version\":1,"
     << "\"config_digest\":\"" << config_digest << "\","
     << "\"shards_folded\":" << shards_folded
     << ",\"shards_total\":" << shards_total
     << ",\"complete\":" << (complete ? "true" : "false")
     << ",\"corners\":[";
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const auto& row = corners[i];
    const auto& a = row.acc;
    if (i) os << ',';
    os << "{\"name\":\"" << row.spec.name() << "\",\"generator\":\""
       << row.spec.generator << "\",\"node\":\"" << row.spec.node
       << "\",\"corner\":\"" << row.spec.corner << "\",\"flicker_scale\":"
       << fmt_g17(row.spec.flicker_scale) << ",\"attack\":\""
       << row.spec.attack << "\",\"shards\":" << a.shards
       << ",\"ais31_run\":" << a.ais31_run
       << ",\"ais31_pass\":" << a.ais31_pass
       << ",\"ais31_pass_rate\":" << fmt_g17(a.ais31_pass_rate())
       << ",\"alarmed\":" << a.alarmed
       << ",\"alarm_rate\":" << fmt_g17(a.alarm_rate()) << ',';
    json_stats(os, "markov_entropy", a.markov_entropy);
    os << ',';
    json_stats(os, "min_entropy", a.min_entropy);
    os << ',';
    json_stats(os, "detect_latency", a.detect_latency);
    os << ",\"verdict\":\"" << row.verdict << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ptrng::model
