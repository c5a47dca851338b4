// Fleet campaign engine tests: grid expansion order, shard determinism,
// pool-width invariance, checkpoint round-trip/corruption
// handling, and the headline guarantee — a resumed campaign's report is
// BYTE-IDENTICAL to an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "model/fleet_campaign.hpp"

namespace {

using namespace ptrng;
using namespace ptrng::model;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Small, fast campaign: first corners of the grid (ero/180nm/tt/f0 under
// each attack), short shards (AIS-31 quick battery auto-skips below
// 20000 bits — shard metrics still exercise entropy + health engine).
CampaignConfig small_config() {
  CampaignConfig config;
  config.corners = 4;
  config.seeds = 2;
  config.bits_per_shard = 1024;
  config.batch_size = 3;
  return config;
}

bool states_equal(const stats::RunningStatsState& a,
                  const stats::RunningStatsState& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2 && a.m3 == b.m3 &&
         a.m4 == b.m4 && a.min == b.min && a.max == b.max;
}

bool accumulators_equal(const CornerAccumulator& a,
                        const CornerAccumulator& b) {
  return a.shards == b.shards && a.ais31_run == b.ais31_run &&
         a.ais31_pass == b.ais31_pass && a.alarmed == b.alarmed &&
         states_equal(a.markov_entropy.state(), b.markov_entropy.state()) &&
         states_equal(a.min_entropy.state(), b.min_entropy.state()) &&
         states_equal(a.detect_latency.state(), b.detect_latency.state());
}

TEST(Grid, FullGridShapeAndOrder) {
  CampaignConfig config;  // corners = 0 -> full grid
  const auto grid = expand_grid(config);
  // (ero + multi_ring) x 4 attacks + cell_array x 1 attack = 9 cells
  // per (node, corner, flicker) = 9 * 4 * 3 * 3.
  EXPECT_EQ(grid.size(), 9u * 4u * 3u * 3u);
  // Attack is the innermost axis; "none" leads every block.
  EXPECT_EQ(grid[0].name(), "ero/180nm/tt/f0/none");
  EXPECT_EQ(grid[1].name(), "ero/180nm/tt/f0/em_weak");
  EXPECT_EQ(grid[2].name(), "ero/180nm/tt/f0/em_strong");
  EXPECT_EQ(grid[3].name(), "ero/180nm/tt/f0/lock");
  EXPECT_EQ(grid[4].name(), "ero/180nm/tt/f1/none");
}

TEST(Grid, TruncationTakesAPrefix) {
  CampaignConfig config;
  const auto full = expand_grid(config);
  config.corners = 7;
  const auto cut = expand_grid(config);
  ASSERT_EQ(cut.size(), 7u);
  for (std::size_t i = 0; i < cut.size(); ++i)
    EXPECT_EQ(cut[i].name(), full[i].name());
}

TEST(Grid, CellArrayRunsUnattackedOnly) {
  CampaignConfig config;
  for (const auto& spec : expand_grid(config)) {
    if (spec.generator == "cell_array") {
      EXPECT_EQ(spec.attack, "none");
    }
  }
}

TEST(Config, CanonicalStringSeparatesCampaigns) {
  CampaignConfig a = small_config();
  CampaignConfig b = a;
  EXPECT_EQ(canonical_config(a), canonical_config(b));
  b.seed ^= 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.bits_per_shard += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  // Interruption knobs deliberately do NOT key the checkpoint: they
  // cannot change the folded stream.
  b = a;
  b.checkpoint_path = "somewhere";
  b.max_shards = 3;
  EXPECT_EQ(canonical_config(a), canonical_config(b));
}

TEST(Shard, DeterministicAcrossCalls) {
  const auto config = small_config();
  const auto grid = expand_grid(config);
  for (const auto& spec : grid) {
    const auto a = run_shard(spec, 0x5eed, config);
    const auto b = run_shard(spec, 0x5eed, config);
    EXPECT_EQ(a.markov_entropy, b.markov_entropy) << spec.name();
    EXPECT_EQ(a.min_entropy, b.min_entropy) << spec.name();
    EXPECT_EQ(a.alarmed, b.alarmed) << spec.name();
    EXPECT_EQ(a.latency_bits, b.latency_bits) << spec.name();
  }
}

TEST(Campaign, ReportIsIdenticalAcrossPoolWidths) {
  // The full grid reaches the ero, multi_ring and cell_array corners, so
  // the shards' own inner parallel_for (rings, cells) runs inline inside
  // a campaign task at width 4. Shards land in index slots and fold in
  // index order: the report must not see the pool width.
  CampaignConfig config;
  config.seeds = 1;
  config.bits_per_shard = 2000;
  auto& pool = ThreadPool::global();
  pool.resize(1);
  const auto serial = run_campaign(config);
  pool.resize(4);
  const auto wide = run_campaign(config);
  pool.resize(0);
  EXPECT_EQ(serial.json(), wide.json());
  EXPECT_EQ(serial.table(), wide.table());
}

TEST(Campaign, LockAttackAlarmsHealthyCornerDoesNot) {
  auto config = small_config();
  const auto report = run_campaign(config);
  ASSERT_EQ(report.corners.size(), 4u);
  EXPECT_TRUE(report.complete);
  // Corner 3 is ero/180nm/tt/f0/lock: near-total injection lock, the
  // stream goes static and the §4.4 repetition-count test fires on
  // every device.
  EXPECT_EQ(report.corners[3].acc.alarmed, report.corners[3].acc.shards);
  EXPECT_EQ(report.corners[3].verdict, "detected");
  EXPECT_GT(report.corners[0].acc.markov_entropy.mean(),
            report.corners[3].acc.markov_entropy.mean());
}

TEST(Campaign, MaxShardsStopsWithPartialReport) {
  auto config = small_config();
  config.max_shards = 3;
  const auto report = run_campaign(config);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.shards_folded, 3u);
  EXPECT_EQ(report.shards_total, 8u);
}

TEST(Campaign, ResumedReportIsByteIdenticalToUninterrupted) {
  auto config = small_config();
  const auto uninterrupted = run_campaign(config);

  const auto ckp = temp_path("ptrng_fleet_resume_test.ckp");
  std::filesystem::remove(ckp);
  config.checkpoint_path = ckp;
  config.resume = true;  // missing file on the first leg = fresh start
  config.max_shards = 3;
  CampaignReport resumed;
  // 8 shards in legs of <= 3: the batch cadence (batch_size = 3) and
  // the interruption points interleave arbitrarily with corner
  // boundaries — exactly the adversarial case for the fold.
  for (int leg = 0; leg < 4; ++leg) {
    resumed = run_campaign(config);
    if (resumed.complete) break;
  }
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.json(), uninterrupted.json());
  EXPECT_EQ(resumed.table(), uninterrupted.table());
  std::filesystem::remove(ckp);
}

TEST(Checkpoint, RoundTripsBitExactly) {
  auto config = small_config();
  config.corners = 2;
  CampaignState state;
  state.corners.resize(2);
  ShardResult r;
  r.markov_entropy = 0.8125;
  r.min_entropy = 0.5;
  r.ais31_run = true;
  r.ais31_pass = false;
  r.alarmed = true;
  r.latency_bits = 41.0;
  state.corners[0].fold(r);
  r.alarmed = false;
  r.markov_entropy = 0.3;  // not representable: exercises exact bits
  state.corners[1].fold(r);
  state.folded = 2;

  const auto path = temp_path("ptrng_fleet_roundtrip_test.ckp");
  write_checkpoint(path, config, state);
  const auto loaded = read_checkpoint(path, config);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->folded, state.folded);
  ASSERT_EQ(loaded->corners.size(), state.corners.size());
  for (std::size_t i = 0; i < state.corners.size(); ++i)
    EXPECT_TRUE(accumulators_equal(loaded->corners[i], state.corners[i]));
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileReturnsNullopt) {
  const auto config = small_config();
  EXPECT_FALSE(
      read_checkpoint(temp_path("ptrng_fleet_no_such_file.ckp"), config)
          .has_value());
}

TEST(Checkpoint, ForeignConfigDigestThrows) {
  auto config = small_config();
  config.corners = 2;
  CampaignState state;
  state.corners.resize(2);
  const auto path = temp_path("ptrng_fleet_digest_test.ckp");
  write_checkpoint(path, config, state);
  auto other = config;
  other.seed ^= 1;
  EXPECT_THROW((void)read_checkpoint(path, other), DataError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptionIsRejected) {
  auto config = small_config();
  config.corners = 2;
  CampaignState state;
  state.corners.resize(2);
  const auto path = temp_path("ptrng_fleet_corrupt_test.ckp");
  write_checkpoint(path, config, state);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Truncation.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 40);
  }
  EXPECT_THROW((void)read_checkpoint(path, config), DataError);
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)read_checkpoint(path, config), DataError);
  // Payload size mismatch (one corner chopped off).
  {
    auto bad = bytes;
    bad.resize(bad.size() - 8);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW((void)read_checkpoint(path, config), DataError);
  std::filesystem::remove(path);
}

TEST(Report, JsonIsVersionedAndTimestampFree) {
  auto config = small_config();
  config.corners = 1;
  config.seeds = 1;
  const auto report = run_campaign(config);
  const auto json = report.json();
  EXPECT_NE(json.find("\"format\":\"ptrng-fleet-campaign-report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"config_digest\":\"" + report.config_digest),
            std::string::npos);
  // Renders must be reproducible call to call.
  EXPECT_EQ(json, report.json());
}

}  // namespace
