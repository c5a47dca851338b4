// Fleet-scale Monte Carlo corner campaign (ROADMAP item 1): the paper's
// single-bench experiment promoted to a deployment question — "across a
// FLEET of devices spanning technology nodes, operating corners,
// flicker levels and attack scenarios, what entropy does the
// architecture actually deliver, and does the continuous-health layer
// catch the attacked corners?"
//
// Structure:
//  * a deterministic CORNER GRID (expand_grid): {generator} x
//    {technology node} x {operating corner} x {flicker scale} x
//    {attack scenario}, expanded in a fixed documented order so
//    "--corners N" always means the same first N cells;
//  * each corner is sampled by `seeds` independent DEVICES (shards);
//    shard s simulates one device seeded from chunk_seed(seed, s) —
//    decorrelated streams, bit-identical for any thread count;
//  * shards fan out on the pool's one claim loop (parallel_for, grain
//    1): each lane claims the next shard as soon as it is free, so
//    uneven shards (a modulated attacked eRO shard costs about 1.5x an
//    unattacked one; generator families differ more) balance
//    dynamically;
//  * aggregation is STREAMING and ORDER-INVARIANT: per-corner
//    accumulators (RunningStats moments + pass/alarm counters) are
//    folded in SHARD INDEX ORDER regardless of completion order, so the
//    campaign state after folding the first P shards is a pure function
//    of (config, P) — which is exactly what makes a checkpoint sound;
//  * CHECKPOINT/RESUME: after every batch the campaign atomically
//    snapshots (folded prefix, accumulator states) under a 64-byte
//    raw_export-style header keyed by the SHA-256 digest of the
//    canonical config string. A resumed campaign replays nothing it
//    already folded and produces a BYTE-IDENTICAL report
//    (docs/ARCHITECTURE.md §9 is the normative format spec).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "oscillator/ring_oscillator.hpp"
#include "stats/descriptive.hpp"
#include "trng/cell_array.hpp"

namespace ptrng::model {

/// One cell of the campaign grid: a device architecture at an operating
/// point under an (optional) attack.
struct CornerSpec {
  std::string generator;     ///< "ero" | "multi_ring" | "cell_array"
  std::string node;          ///< technology node name ("90nm", ...)
  std::string corner;        ///< operating corner name ("tt", ...)
  double flicker_scale = 1.0;  ///< 0 = thermal only, 1 = paper level
  std::string attack;        ///< attacks::attack_names() entry

  /// Stable display/JSON id, e.g. "ero/90nm/tt/f1/lock".
  [[nodiscard]] std::string name() const;
};

/// Campaign configuration. Every field participates in the canonical
/// config string (and therefore the checkpoint digest) — two configs
/// with any differing field never share a checkpoint.
struct CampaignConfig {
  /// Grid cells to run: the first `corners` of expand_grid()'s fixed
  /// order; 0 = the full grid.
  std::size_t corners = 0;
  std::size_t seeds = 8;       ///< independent devices per corner
  /// Raw bits simulated per device (>= 1000, the Markov estimator's
  /// floor). The AIS-31 quick battery needs 20000
  /// (ais31::quick_battery_bits()); smaller shards skip it.
  std::size_t bits_per_shard = 20000;
  std::uint64_t seed = 0xf1ee7ca5ULL;  ///< base; shards derive per index
  bool run_ais31 = true;       ///< run T1-T4 per shard when bits allow
  std::uint32_t divider = 200;  ///< eRO / multi-ring sampling divider
  std::size_t rings = 4;       ///< multi-ring R
  std::size_t cells = 3;       ///< cell-array N
  /// Shards per batch: the unit of fan-out AND the checkpoint cadence
  /// (a snapshot lands after every batch when checkpointing is on).
  std::size_t batch_size = 64;
  /// Checkpoint file; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Load `checkpoint_path` and continue after its folded prefix. A
  /// missing file starts fresh; a digest mismatch throws DataError.
  bool resume = false;
  /// Fold at most this many shards THIS invocation (then checkpoint and
  /// return with complete=false) — the programmatic stand-in for
  /// kill-and-resume, and what the interruption tests drive.
  std::size_t max_shards = 0;  ///< 0 = unlimited
  /// Optional after-each-batch hook (CLI progress): (folded, total).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

/// Measurements of ONE device shard (what the fold consumes).
struct ShardResult {
  double markov_entropy = 0.0;   ///< first-order Markov rate [bits/bit]
  double min_entropy = 0.0;      ///< 8-bit-block min-entropy [bits/bit]
  bool ais31_run = false;
  bool ais31_pass = false;
  bool alarmed = false;          ///< SP 800-90B §4.4 engine fired
  double latency_bits = 0.0;     ///< 1-based first-alarm bit when alarmed
};

/// Streaming per-corner aggregate: constant memory per corner no matter
/// how many shards fold into it. All members round-trip bit-exactly
/// through the checkpoint (RunningStatsState + u64 counters).
struct CornerAccumulator {
  stats::RunningStats markov_entropy;
  stats::RunningStats min_entropy;
  stats::RunningStats detect_latency;  ///< over ALARMED shards only
  std::uint64_t shards = 0;
  std::uint64_t ais31_run = 0;
  std::uint64_t ais31_pass = 0;
  std::uint64_t alarmed = 0;

  void fold(const ShardResult& r);
  /// AIS-31 pass fraction (1.0 when the battery never ran).
  [[nodiscard]] double ais31_pass_rate() const noexcept;
  [[nodiscard]] double alarm_rate() const noexcept;
};

/// One corner's row in the final report.
struct CornerReport {
  CornerSpec spec;
  CornerAccumulator acc;
  /// "pass"/"degraded" for unattacked corners (AIS-31 pass rate and a
  /// quiet health engine), "detected"/"missed" for attacked ones (did
  /// the §4.4 engine alarm on a majority of devices?).
  std::string verdict;
};

/// The campaign outcome. table()/json() are DETERMINISTIC renderings:
/// no timestamps, fixed %.17g double formatting — byte-identical for
/// identical folded state, which is what the resume tests pin.
struct CampaignReport {
  std::vector<CornerReport> corners;
  std::uint64_t shards_folded = 0;
  std::uint64_t shards_total = 0;
  bool complete = false;
  std::string config_digest;  ///< lower-case hex SHA-256

  [[nodiscard]] std::string table() const;
  [[nodiscard]] std::string json() const;
};

/// Resumable campaign state: the folded prefix plus one accumulator per
/// grid corner — everything a checkpoint stores.
struct CampaignState {
  std::uint64_t folded = 0;
  std::vector<CornerAccumulator> corners;
};

/// The fixed campaign grid for `config` (honours corners/rings/cells
/// knobs only), expansion order generator -> node -> corner -> flicker
/// -> attack with axes:
///   generator {ero, multi_ring, cell_array}, node {180nm, 90nm, 65nm,
///   28nm}, corner standard_corners(), flicker_scale {0, 1, 4}, attack
///   attack_names() — except cell_array, which runs attack "none" only
///   (the injection model is ring-pair-level).
/// config.corners truncates to the first N cells.
[[nodiscard]] std::vector<CornerSpec> expand_grid(
    const CampaignConfig& config);

/// One ring of a ring-family device (ero / multi_ring) at `spec`'s
/// operating point: the paper calibration (a 180nm-class ring) with
/// b_fl scaled by spec.flicker_scale and the node's flicker multiplier,
/// b_th and f0 derated by the operating corner, and `mismatch` set.
/// run_shard builds every ring it simulates through this.
[[nodiscard]] oscillator::RingOscillatorConfig derated_ring(
    const CornerSpec& spec, std::uint64_t seed, double mismatch);

/// The `cells`-cell array of a cell_array device at `spec`'s operating
/// point: trng::cell_array_from_technology for the node (flicker banks
/// on when spec.flicker_scale > 0), with the per-stage thermal sigma,
/// flicker amplitude and stage delay derated by the operating corner
/// and the flicker scale. run_shard builds every cell array through
/// this.
[[nodiscard]] trng::CellArrayConfig derated_cell_array(const CornerSpec& spec,
                                                       std::uint64_t seed,
                                                       std::size_t cells);

/// Canonical, timestamp-free config string — the checkpoint key.
[[nodiscard]] std::string canonical_config(const CampaignConfig& config);

/// Simulates one device shard of `spec` (seed already derived) and
/// measures it: Markov/min-entropy, the AIS-31 quick battery, and the
/// continuous-health first-alarm latency.
[[nodiscard]] ShardResult run_shard(const CornerSpec& spec,
                                    std::uint64_t shard_seed,
                                    const CampaignConfig& config);

/// Atomically (tmp + rename) writes a checkpoint of `state` keyed by
/// the SHA-256 of canonical_config(config).
void write_checkpoint(const std::string& path,
                      const CampaignConfig& config,
                      const CampaignState& state);

/// Reads a checkpoint back. Returns nullopt when the file does not
/// exist; throws DataError on corruption, a foreign config digest, or a
/// corner count that disagrees with the config's grid.
[[nodiscard]] std::optional<CampaignState> read_checkpoint(
    const std::string& path, const CampaignConfig& config);

/// Runs (or resumes) the campaign: grid expansion, batched shard
/// fan-out on the thread pool, in-index-order folding, periodic
/// checkpointing. The report depends only on (config, shards folded) —
/// never on thread count, completion order, or interruption history.
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& config);

}  // namespace ptrng::model
